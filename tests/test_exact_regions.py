"""Exact region decisions and finite closed forms at every N, near every boundary.

The reference here is built test-side: an exact `Fraction` chart from the
paper's rational landmarks, a priority scan over the closed region polygons
and an mpmath minimization of the KL objective over the boundary of the
PPT polygon.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from ri_entropy import geometry
from ri_entropy.closed_form import e_gamma_3xn_even, ree_3x3, ree_3xn_odd
from ri_entropy.geometry import Region, classify_region, region_polygons
from ri_entropy.states import NormalizedCoords
from test_closed_form import LAST_FLOAT_N

NS = [3, 4, 5, 6, 101, 10**4 + 1, 10**6 + 1, 10**8, 10**8 + 1, 10**12, 10**12 + 1]
TINY = (5e-324, 1e-300, 1e-17)

MP = mpmath.MPContext()
MP.dps = 30


def chart(N):
    F = Fraction
    pts = {"A": (F(0), F(0)), "B": (F(1), F(0)), "C": (F(0), F(1)),
           "D": (F(N - 1, 2 * N), F(0)), "E": (F(0), F(N - 1, N + 1)),
           "A'": (F(N - 2, N), F(2, N + 1))}
    pts["F"] = (F(N - 3, N - 1), F(2, N - 1))  # N = 3: F = C and H = B
    pts["H"] = (F((N + 3) * (N - 1) * (N - 2), N * (N * N - 5)), F(0))
    return pts


def exact_polygons(N):
    """Closed region polygons, counterclockwise, in priority order."""
    c = chart(N)
    sep = (Region.SEPARABLE, ("A", "D", "A'", "E"))
    if N == 3:
        rest = ((Region.TRI_APRIME_CE, ("A'", "C", "E")),
                (Region.TRI_APRIME_BD, ("A'", "D", "B")),
                (Region.TRI_APRIME_BC, ("A'", "B", "C")))
    else:
        rest = ((Region.POLY_APRIME_FCE, ("A'", "F", "C", "E")),
                (Region.POLY_APRIME_HBF, ("A'", "H", "B", "F")),
                (Region.TRI_APRIME_DH, ("A'", "D", "H")))
    return [(region, [c[k] for k in names]) for region, names in (sep, *rest)]


def exact_region(N, x, y):
    """First polygon of the priority order that holds the exact point.

    Edges on the line x + y = 1 are not tested, so a float point just past
    edge BC belongs to the region on the other side of it.
    """
    pt = (Fraction(x), Fraction(y))
    for region, poly in exact_polygons(N):
        edges = zip(poly, poly[1:] + poly[:1])
        if all((p[0] - o[0]) * (pt[1] - o[1]) - (p[1] - o[1]) * (pt[0] - o[0]) >= 0
               for o, p in edges if o[0] + o[1] != 1 or p[0] + p[1] != 1):
            return region
    raise AssertionError(f"({x!r}, {y!r}) is in no region")


def mp_ree(N, x, y):
    """Minimum of KL over the PPT polygon at 30 digits (0 inside it)."""
    c = chart(N)
    poly = [c[k] for k in ("A", "D", "A'", "E")]
    if exact_region(N, x, y) is Region.SEPARABLE:
        return MP.mpf(0)
    X, Y = MP.mpf(x), MP.mpf(y)
    p = (X, Y, max(1 - X - Y, MP.mpf(0)))
    verts = [tuple(MP.mpf(v.numerator) / v.denominator for v in (u, w, 1 - u - w))
             for u, w in poly]

    def kl(q):
        total = MP.mpf(0)
        for pi, qi in zip(p, q):
            if pi > 0:
                if qi <= 0:
                    return MP.inf
                total += pi * MP.log(pi / qi)
        return total

    best = MP.inf
    for v0, v1 in zip(verts, verts[1:] + verts[:1]):
        d = [b - a for a, b in zip(v0, v1)]
        if any(pi > 0 and a == 0 and di == 0 for pi, a, di in zip(p, v0, d)):
            continue  # KL is infinite along the whole edge
        lo, hi = MP.mpf(0), MP.mpf(1)
        for _ in range(90):  # the slope along the edge increases: bisect its sign
            mid = (lo + hi) / 2
            slope = -sum(pi * di / (a + mid * di) for pi, a, di in zip(p, v0, d) if pi > 0)
            lo, hi = (lo, mid) if slope > 0 else (mid, hi)
        for s in (MP.mpf(0), (lo + hi) / 2, MP.mpf(1)):
            best = min(best, kl([a + s * di for a, di in zip(v0, d)]))
    return best


def closed_form(N, coords):
    if N == 3:
        return ree_3x3(coords)
    return (ree_3xn_odd if N % 2 else e_gamma_3xn_even)(N, coords)


def probe_points(N, seed):
    """Region interiors, vertices +-1 ulp, and tiny offsets along every edge."""
    rnd = random.Random(seed)
    pts = []
    for _, poly in region_polygons(N):
        for _ in range(12):
            cuts = sorted(rnd.random() for _ in range(len(poly) - 1))
            wts = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
            pts.append((sum(w * v.x for w, v in zip(wts, poly)),
                        sum(w * v.y for w, v in zip(wts, poly))))
        for v in poly:
            for dx in (-math.inf, 0.0, math.inf):
                for dy in (-math.inf, 0.0, math.inf):
                    pts.append((math.nextafter(v.x, dx) if dx else v.x,
                                math.nextafter(v.y, dy) if dy else v.y))
        for o, p in zip(poly, poly[1:] + poly[:1]):
            for t in TINY:
                pts.append((o.x + t * (p.x - o.x), o.y + t * (p.y - o.y)))
                pts.append((p.x + t * (o.x - p.x), p.y + t * (o.y - p.y)))
                for s in (0.25, 0.5):  # a tiny step off the edge, inwards or out
                    mx, my = (1 - s) * o.x + s * p.x, (1 - s) * o.y + s * p.y
                    pts.append((mx + t, my))
                    pts.append((mx, my + t))
                    pts.append((max(mx - t, 0.0), max(my - t, 0.0)))
    coords = []
    for x, y in pts:
        try:
            coords.append(NormalizedCoords(x, y))
        except ValueError:  # shifted past the simplex by more than NORM_TOL
            pass
    return coords


@pytest.mark.parametrize("N", NS)
def test_region_is_exact_and_value_finite(N):
    coords = probe_points(N, seed=N % 1000)
    assert len(coords) > 300
    for c in coords:
        expected = exact_region(N, c.ahat_lo, c.ahat_mid)
        assert classify_region(N, c) is expected, (c, expected)
        res = closed_form(N, c)  # must not raise
        assert res.region is expected
        assert math.isfinite(res.value) and res.value >= 0.0, (c, res.value)


@pytest.mark.parametrize("N", NS)
def test_values_match_mpmath(N):
    coords = probe_points(N, seed=N % 1000)[::12]
    worst = 0.0
    for c in coords:
        got = closed_form(N, c).value
        worst = max(worst, abs(got - float(mp_ree(N, c.ahat_lo, c.ahat_mid))))
    assert worst <= 1e-14


@pytest.mark.parametrize("N,x,y,want", [
    (5, 1e-20, 0.95, "0.2416"),
    (5, 0.6, 1e-20, "0.0811"),
    (3, 1e-16, 1 - 5e-16, "0.6931"),
])
def test_tiny_coordinates_give_finite_values(N, x, y, want):
    got = closed_form(N, NormalizedCoords(x, y)).value
    assert f"{got:.4f}" == want
    assert abs(got - float(mp_ree(N, x, y))) <= 1e-14


@pytest.mark.parametrize("N", [3, 4, 5, 7, 10, 101, 10**8 + 1, 10**12 + 1, 10**30 + 1])
def test_line_forms_vanish_at_their_landmarks(N):
    c = chart(N)
    k = geometry._per_n(N)
    approxes = [k.approx[i:i + 3] for i in range(0, 12, 3)]
    for exact, approx, ends in zip(k.lines, approxes,
                                   (("D", "A'"), ("A'", "E"), ("A'", "F"), ("A'", "H"))):
        a, b, k = exact
        assert all(type(v) is int for v in exact)
        for name in ends:
            x, y = c[name]
            assert a * x + b * y - k == 0, (N, name)
        assert approx == tuple(float(v) for v in exact)


@pytest.mark.parametrize("N", [3 * 10**51 + 1, 10**52 + 1, 2 * 10**77 + 1, 10**78 + 1,
                               LAST_FLOAT_N])
def test_flanking_roots_stay_in_the_float_range(N):
    # unscaled, beta^2 of the A'DH root overflows from about 2.4e51 on and c1^2 of
    # the A'FCE root from about 1.2e77 on, which moved the minimizer to D or E
    for region, poly in region_polygons(N):
        if region in (Region.POLY_APRIME_FCE, Region.TRI_APRIME_DH):
            c = NormalizedCoords(sum(v.x for v in poly) / len(poly),
                                 sum(v.y for v in poly) / len(poly))
            res = closed_form(N, c)
            assert res.region is region
            assert math.isfinite(res.aux.root)
            assert abs(res.value - float(mp_ree(N, c.ahat_lo, c.ahat_mid))) <= 1e-15
