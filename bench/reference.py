"""Reference computations for the benchmark's output checks.

Nothing here imports `ri_entropy`.  The 3(x)N chart is built in exact
`Fraction` arithmetic from the paper's rational landmark expressions, in
barycentric coordinates (x, y) = (ahat_{j-1}, ahat_j), which are also the
block probabilities of the state.  The relative entropy of entanglement is
computed with mpmath at 50 digits as the minimum of the KL objective over
the boundary of the PPT polygon (0 inside it): the objective is convex and
vanishes only at the state itself, so for a state outside the polygon the
minimum lies on the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

import mpmath

MP = mpmath.MPContext()
MP.dps = 50

# region tags as the program prints them
SEPARABLE = "SEPARABLE_ADA'E"
ENTANGLED_INTERVAL = "ENTANGLED_INTERVAL"


def chart(N: int) -> dict:
    """Landmarks of the 3(x)N chart as exact barycentric points."""
    if N < 3:
        raise ValueError("need N >= 3")
    F = Fraction
    pts = {
        "A": (F(0), F(0)),
        "B": (F(1), F(0)),
        "C": (F(0), F(1)),
        "D": (F(N - 1, 2 * N), F(0)),
        "E": (F(0), F(N - 1, N + 1)),
        "A'": (F(N - 2, N), F(2, N + 1)),
    }
    if N > 3:
        pts["F"] = (F(N - 3, N - 1), F(2, N - 1))
        pts["G"] = (F((N - 1) ** 2 * (N + 3), 2 * N * (N * N - 5)), F(0))
        pts["H"] = (F((N + 3) * (N - 1) * (N - 2), N * (N * N - 5)), F(0))
    return pts


def ppt_polygon(N: int):
    """The PPT polygon A D A' E, counterclockwise."""
    c = chart(N)
    return (c["A"], c["D"], c["A'"], c["E"])


def region_polygons(N: int) -> dict:
    """Counterclockwise vertex lists of every region of the chart, by tag."""
    c = chart(N)
    regions = {SEPARABLE: ppt_polygon(N)}
    if N == 3:
        regions["TRI_A'CE"] = (c["A'"], c["C"], c["E"])
        regions["TRI_A'BD"] = (c["A'"], c["D"], c["B"])
        regions["TRI_A'BC"] = (c["A'"], c["B"], c["C"])
    else:
        regions["POLY_A'FCE"] = (c["A'"], c["F"], c["C"], c["E"])
        regions["POLY_A'HBF"] = (c["A'"], c["H"], c["B"], c["F"])
        regions["TRI_A'DH"] = (c["A'"], c["D"], c["H"])
    return regions


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def edge_distances(poly, pt):
    """Signed distance of `pt` to each edge line (positive inside), as floats.

    The sign is exact: the cross products are taken in rational arithmetic
    on the exact value of each float coordinate.
    """
    pt = (Fraction(pt[0]), Fraction(pt[1]))
    out = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        length = float(((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)) ** 0.5
        out.append(float(_cross(a, b, pt)) / length)
    return out


def inside(poly, pt) -> bool:
    """Exact membership, boundary included."""
    pt = (Fraction(pt[0]), Fraction(pt[1]))
    return all(_cross(poly[i], poly[(i + 1) % len(poly)], pt) >= 0 for i in range(len(poly)))


def threshold_2xn(twice_j: int) -> Fraction:
    """Separability threshold 2j/(2j+1) of the 2(x)N family."""
    return Fraction(twice_j, twice_j + 1)


def _fact_half(twice_n: int) -> int:
    return factorial(twice_n // 2)


def _triangle_sq(a: int, b: int, c: int) -> Fraction:
    """Squared triangle coefficient of doubled spins (a b c)."""
    f = _fact_half
    return Fraction(f(a + b - c) * f(a - b + c) * f(-a + b + c), f(a + b + c + 2))


def _exact_sqrt(x: Fraction) -> Fraction:
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        raise ArithmeticError(f"{x} is not a rational square")
    return Fraction(n, d)


def six_j(a: int, b: int, c: int, d: int, e: int, f: int) -> Fraction:
    """Racah's formula for {a/2 b/2 c/2; d/2 e/2 f/2} when its triangle factor is a square."""
    fh = _fact_half
    pref = _exact_sqrt(_triangle_sq(a, b, c) * _triangle_sq(a, e, f)
                       * _triangle_sq(d, b, f) * _triangle_sq(d, e, c))
    total = Fraction(0)
    for t in range(max(a + b + c, a + e + f, d + b + f, d + e + c),
                   min(a + b + d + e, b + c + e + f, c + a + f + d) + 1, 2):
        total += Fraction((-1) ** (t // 2) * fh(t + 2),
                          fh(t - a - b - c) * fh(t - a - e - f) * fh(t - d - b - f)
                          * fh(t - d - e - c) * fh(a + b + d + e - t) * fh(b + c + e + f - t)
                          * fh(c + a + f + d - t))
    return pref * total


def ptr_map(twice_j1: int, twice_j2: int):
    """Exact matrix T with q = T p, where p and q are the block probabilities of an RI
    state and of its partial time reversal (J ascending):
    T[J'][J] = (-1)^(2 j1 + 2 j2) (2J'+1) {j1 j2 J'; j1 j2 J}.

    An independent route to the PPT set {p : T p >= 0}, used by selftest.py to
    confirm the paper's rational landmark expressions.
    """
    Js = range(abs(twice_j1 - twice_j2), twice_j1 + twice_j2 + 1, 2)
    sign = (-1) ** (twice_j1 + twice_j2)
    return [[sign * (Jp + 1) * six_j(twice_j1, twice_j2, Jp, twice_j1, twice_j2, J)
             for J in Js] for Jp in Js]


def kl(p, q):
    """sum p ln(p/q) at 50 digits; 0 ln 0 = 0, support violation -> +inf."""
    total = MP.mpf(0)
    for pi, qi in zip(p, q):
        pi, qi = MP.mpf(pi), MP.mpf(qi)
        if pi > 0:
            if qi <= 0:
                return MP.inf
            total += pi * MP.log(pi / qi)
    return total


def ree_2xn(twice_j: int, p: float):
    """(E_r, p*) of the 2(x)N state with lower-block weight p."""
    pc = threshold_2xn(twice_j)
    if Fraction(p) <= pc:
        return MP.mpf(0), MP.mpf(p)
    pc_mp = MP.mpf(pc.numerator) / pc.denominator
    return kl((p, 1 - MP.mpf(p)), (pc_mp, 1 - pc_mp)), pc_mp


def _edge_minimum(p, v0, v1):
    """Minimum of KL(p || (1-s) v0 + s v1) over s in [0, 1], at 50 digits."""
    d = [v1[i] - v0[i] for i in range(3)]
    # an outcome with p_i > 0 whose weight vanishes along the whole edge
    if any(p[i] > 0 and v0[i] == 0 and d[i] == 0 for i in range(3)):
        return MP.inf, None

    def q(s):
        return [v0[i] + s * d[i] for i in range(3)]

    def slope(s):
        qs = q(s)
        return -sum(p[i] * d[i] / qs[i] for i in range(3) if p[i] > 0)

    lo, hi = MP.mpf(0), MP.mpf(1)
    for _ in range(110):  # the slope is increasing: bisect its sign change
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    best = (kl(p, q((lo + hi) / 2)), (lo + hi) / 2)
    for s in (MP.mpf(0), MP.mpf(1)):
        best = min(best, (kl(p, q(s)), s), key=lambda t: t[0])
    return best[0], q(best[1])


def ree_3xn(N: int, x: float, y: float):
    """(E, (x*, y*)) over the PPT polygon: E_r for odd N and N = 3, E_Gamma for even N."""
    poly = ppt_polygon(N)
    if inside(poly, (x, y)):
        return MP.mpf(0), (MP.mpf(x), MP.mpf(y))
    p = [MP.mpf(x), MP.mpf(y)]
    p.append(1 - p[0] - p[1])
    verts = [[MP.mpf(c.numerator) / c.denominator for c in (v[0], v[1], 1 - v[0] - v[1])]
             for v in poly]
    best = (MP.inf, None)
    for i in range(len(verts)):
        val, point = _edge_minimum(p, verts[i], verts[(i + 1) % len(verts)])
        if val < best[0]:
            best = (val, point)
    return best[0], (best[1][0], best[1][1])
