"""Convex geometry of the 3(x)N state simplex.

The alpha-vectors of 3(x)N RI states form a triangle with vertices A, B,
C; its image under partial time reversal is another triangle A', B', C',
and the intersection (the PPT region, which equals the separable region
for odd N) is the polygon A D A' E.  Everything here is charted on the
raw (alpha_{j-1}, alpha_j) plane; most internal work happens in
barycentric ("normalized") coordinates where the simplex is the standard
triangle {x, y >= 0, x + y <= 1}.  Only the vertex tables return arrays and
import numpy, on their first call.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

from .angular import Spin
from .states import NormalizedCoords, _check_n, _prefactors, _spin_of_n

__all__ = [
    "Point2",
    "Region",
    "simplex_vertices",
    "ppt_image_vertices",
    "ppt_polygon",
    "landmark_points",
    "classify_region",
    "polygon_area_ratio",
    "normalized_chart",
]

class Point2(NamedTuple):
    x: float
    y: float


class Region(enum.Enum):
    """Region of the 3(x)N chart a state falls in (boundaries resolved by priority)."""

    SEPARABLE = "SEPARABLE_ADA'E"
    # odd/even N >= 4 entangled regions
    TRI_APRIME_DH = "TRI_A'DH"
    POLY_APRIME_HBF = "POLY_A'HBF"
    POLY_APRIME_FCE = "POLY_A'FCE"
    # N = 3 entangled regions (F -> C and H -> B degenerate)
    TRI_APRIME_BD = "TRI_A'BD"
    TRI_APRIME_BC = "TRI_A'BC"
    TRI_APRIME_CE = "TRI_A'CE"
    # 2(x)N family has a one-dimensional state space: entangled interval
    ENTANGLED_INTERVAL = "ENTANGLED_INTERVAL"

    def __str__(self):
        return self.value


# members bound once, as the closed forms return and compare them on every call:
# a module name reads several times faster than Region.X, most of all before 3.12
_SEPARABLE, _TRI_APRIME_DH, _POLY_APRIME_HBF, _POLY_APRIME_FCE = (
    Region.SEPARABLE, Region.TRI_APRIME_DH, Region.POLY_APRIME_HBF, Region.POLY_APRIME_FCE)
_TRI_APRIME_BD, _TRI_APRIME_BC, _TRI_APRIME_CE, _ENTANGLED_INTERVAL = (
    Region.TRI_APRIME_BD, Region.TRI_APRIME_BC, Region.TRI_APRIME_CE, Region.ENTANGLED_INTERVAL)


def simplex_vertices(N: int):
    """Raw alpha-vectors of the simplex vertices A, B, C."""
    import numpy as np
    N = _check_n(N)
    B, C, A = np.diag(_prefactors(N))  # each vertex has one nonzero alpha
    return A, B, C


def ppt_image_vertices(N: int):
    """Raw alpha-vectors of the partial-time-reversal images A', B', C'."""
    import numpy as np
    N = _check_n(N)
    Ap = np.array([
        math.sqrt(3 * (N - 2) / N),
        2 * math.sqrt(3.0) / (N + 1),
        2 / (N + 1) * math.sqrt(3 / (N * (N + 2))),
    ])
    Bp = np.array([
        2 / (N - 1) * math.sqrt(3 / (N * (N - 2))),
        -2 * math.sqrt(3.0) / (N - 1),
        math.sqrt(3 * (N + 2) / N),
    ])
    Cp = np.array([
        -2 / (N - 1) * math.sqrt(3 * (N - 2) / N),
        math.sqrt(3.0) * (N * N - 5) / (N * N - 1),
        2 / (N + 1) * math.sqrt(3 * (N + 2) / N),
    ])
    return Ap, Bp, Cp


def ppt_polygon(N: int):
    """PPT polygon vertices (A, D, A', E) as raw Point2, counterclockwise."""
    N = _check_n(N)
    A = Point2(0.0, 0.0)
    D = Point2((N - 1) / 2 * math.sqrt(3 / (N * (N - 2))), 0.0)
    Ap = Point2(math.sqrt(3 * (N - 2) / N), 2 * math.sqrt(3.0) / (N + 1))
    E = Point2(0.0, math.sqrt(3.0) * (N - 1) / (N + 1))
    return A, D, Ap, E


def landmark_points(N: int):
    """Raw coordinates of F (on BC), G and H (on the alpha_j = 0 edge)."""
    N = _check_n(N, minimum=5)
    F = Point2((N - 3) / (N - 1) * math.sqrt(3 * N / (N - 2)),
               2 * math.sqrt(3.0) / (N - 1))
    G = Point2((N - 1) ** 2 * (N + 3) / (2 * (N * N - 5)) * math.sqrt(3 / (N * (N - 2))), 0.0)
    H = Point2((N + 3) * (N - 1) / (N * N - 5) * math.sqrt(3 * (N - 2) / N), 0.0)
    return F, G, H


class NormalizedChart(NamedTuple):
    """Landmark points of the 3(x)N chart in barycentric coordinates."""

    a: Point2
    b: Point2
    c: Point2
    d: Point2
    e: Point2
    a_prime: Point2
    f: Point2
    g: Point2
    h: Point2


def normalized_chart(N: int) -> NormalizedChart:
    """All landmarks in barycentric coordinates (exact rational expressions).

    Built once per N and shared: the result is an immutable tuple.
    """
    return _normalized_chart(_check_n(N))


@lru_cache(maxsize=256)
def _normalized_chart(N: int) -> NormalizedChart:
    a = Point2(0.0, 0.0)
    b = Point2(1.0, 0.0)
    c = Point2(0.0, 1.0)
    d = Point2((N - 1) / (2 * N), 0.0)
    e = Point2(0.0, (N - 1) / (N + 1))
    ap = Point2((N - 2) / N, 2 / (N + 1))
    f = Point2((N - 3) / (N - 1), 2 / (N - 1))  # N = 3: F = C and G = H = B
    g = Point2((N - 1) ** 2 * (N + 3) / (2 * N * (N * N - 5)), 0.0)
    h = Point2((N + 3) * (N - 1) * (N - 2) / (N * (N * N - 5)), 0.0)
    return NormalizedChart(a, b, c, d, e, ap, f, g, h)


def region_polygons(N: int):
    """Counterclockwise vertex tuples of each region in barycentric coordinates.

    Ordered by the boundary tie-break priority: SEPARABLE > A'FCE >
    A'HBF > A'DH (for N = 3: SEPARABLE > A'CE > A'BD > A'BC, which keeps
    the vertices B and C in the regions the state-space figures assign
    them to).
    """
    N = _check_n(N)
    ch = _normalized_chart(N)
    if N == 3:
        # degenerate landmarks: F = C, H = B
        return (
            (Region.SEPARABLE, (ch.a, ch.d, ch.a_prime, ch.e)),
            (Region.TRI_APRIME_CE, (ch.a_prime, ch.c, ch.e)),
            (Region.TRI_APRIME_BD, (ch.a_prime, ch.d, ch.b)),
            (Region.TRI_APRIME_BC, (ch.a_prime, ch.b, ch.c)),
        )
    return (
        (Region.SEPARABLE, (ch.a, ch.d, ch.a_prime, ch.e)),
        (Region.POLY_APRIME_FCE, (ch.a_prime, ch.f, ch.c, ch.e)),
        (Region.POLY_APRIME_HBF, (ch.a_prime, ch.h, ch.b, ch.f)),
        (Region.TRI_APRIME_DH, (ch.a_prime, ch.d, ch.h)),
    )


# Evaluated in floats (a, b, c rounded once, two products, two sums), a form
# a x + b y - c is within about 5u (|a x| + |b y| + |c|) of exact, u = 2^-53,
# with |a x| and |b y| as computed; underflow adds at most 2^-1075 per product,
# far below u |c| as c >= 2.  A float value beyond 16u times that sum has the exact sign.
_ROUNDING = 16 * 2.0 ** -53


class _PerN(NamedTuple):
    """Everything the 3(x)N closed forms read at N, built once per N by `_per_n`.

    The A'FCE and A'DH constants are the floats their expressions in N convert
    to, each times 2^-e, with e >= 0 per root chosen by `_per_n` to keep the
    squares in the root's arithmetic in the float range.  A power of two scales a
    quadratic's coefficients exactly, so its root keeps its bits; the reported t1
    or t2 is scaled back.
    """

    n: int
    lines: tuple        # D-A', A'-E, A'-F, A'-H (N = 3: A'-C, A'-B) as int forms (a, b, c)
    approx: tuple       # their twelve coefficients as floats, in the same order
    above_3: bool       # N > 3: the regions of N >= 4, not those of N = 3
    d: Point2
    e: Point2
    a_prime: Point2
    fce: tuple          # N+1, N(N-3), (N-1)^2, 2(N-1)(N-3), 2N, 2(N-1), 4.0(N-1)(N-3),
                        # 2.0 N(N-3), 2N(N-1), each times 2^-e; 2.0^e
    dh: tuple           # K = (N+3)(N-1)^2, 2.0 N(N^2-5), (N+1)^2 (N-3), (N-1)(N+1)^2,
                        # (N+3)(N-1)(N-3), each times 2^-e; 2.0^e
    floor: float        # 2/N/(N+1), the third coordinate of A'
    prefactors: tuple   # `states._prefactors(N)`
    spin: Spin          # Spin(N - 1), the second spin
    quantity: str       # "E_r" (odd N) or "E_Gamma" (even N)


@lru_cache(maxsize=256)
def _per_n(N: int) -> _PerN:
    """The `_PerN` of a checked int N.  Its line forms are converted first, so
    that above about 5.64e102, where N^3 passes the float range, the build
    raises their OverflowError and no other."""
    lines = ((4 * N, -(N - 3) * (N + 1), 2 * (N - 1)),
             (N * (N - 3), (N - 2) * (N + 1), (N - 2) * (N - 1)),
             (2 * N, N + 1, 2 * (N - 1)),
             (N * (N * N - 5), (N - 2) * (N + 1) ** 2, (N + 3) * (N - 1) * (N - 2)))
    approx = tuple(float(v) for line in lines for v in line)
    ch = _normalized_chart(N)
    # N < 2^b bounds |c1| of the A'FCE root by 4 N^2 < 2^(2b+2) and |beta| of the A'DH
    # root by 4 N^3 < 2^(3b+2); scaled by 2^-e, each stays under 2^510, and its square,
    # with the other term under the root, in the float range.  e = 0 below N = 2^254
    # and 2^169, under the N (about 1.2e77 and 2.4e51) where the unscaled squares
    # overflow.  Integer true division rounds once, as float() does, and cannot overflow.
    e = max(2 * N.bit_length() - 508, 0)
    f = 2 ** e
    fce = ((N + 1) / f, N * (N - 3) / f, (N - 1) ** 2 / f, 2 * (N - 1) * (N - 3) / f,
           2 * N / f, 2 * (N - 1) / f, 4.0 * (N - 1) * ((N - 3) / f), 2.0 * N * ((N - 3) / f),
           2 * N * (N - 1) / f, 2.0 ** e)
    e = max(3 * N.bit_length() - 508, 0)
    f = 2 ** e
    dh = ((N + 3) * (N - 1) ** 2 / f, 2.0 * N * ((N * N - 5) / f), (N + 1) ** 2 * (N - 3) / f,
          (N - 1) * (N + 1) ** 2 / f, (N + 3) * (N - 1) * (N - 3) / f, 2.0 ** e)
    return _PerN(N, lines, approx, N > 3, ch.d, ch.e, ch.a_prime, fce, dh, 2.0 / N / (N + 1),
                 _prefactors(N), _spin_of_n(N), "E_Gamma" if N % 2 == 0 else "E_r")


def _exact_side(line, x: float, y: float) -> int:
    """Sign of a x + b y - c at the exact value of the float point (x, y)."""
    (a, b, c), (px, qx), (py, qy) = line, x.as_integer_ratio(), y.as_integer_ratio()
    v = a * px * qy + b * py * qx - c * qx * qy
    return (v > 0) - (v < 0)


def classify_region(N: int, coords: NormalizedCoords) -> Region:
    """Region of the chart containing the state, decided exactly.

    Each region is the part of the simplex in a cone at A' between two lines
    of `_PerN.lines`.  Boundary points go to the first region of the priority
    SEPARABLE > A'FCE > A'HBF > A'DH (N = 3: SEPARABLE > A'CE > A'BD > A'BC),
    a value-neutral choice as the closed forms are continuous.  The simplex
    edges are not tested: a float point just past x + y = 1 falls beyond BC.
    """
    return _classify_region(_per_n(_check_n(N)), coords.ahat_lo, coords.ahat_mid)


def _classify_region(k: _PerN, x: float, y: float) -> Region:
    """`classify_region` of the point (x, y) from the `_PerN` of N."""
    ad, bd, cd, ae, be, ce, af, bf, cf, ah, bh, ch = k.approx
    # each form is > 0 on B's side of its line (on C's side for A'-E, and for
    # A'-H at N = 3); x, y >= 0 and every coefficient but bd is >= 0
    if abs(sd := ad * x + bd * y - cd) <= _ROUNDING * (ad * x - bd * y + cd):
        sd = _exact_side(k.lines[0], x, y)
    if abs(se := ae * x + be * y - ce) <= _ROUNDING * (ae * x + be * y + ce):
        se = _exact_side(k.lines[1], x, y)
    if sd <= 0 and se <= 0:
        return _SEPARABLE
    if abs(sf := af * x + bf * y - cf) <= _ROUNDING * (af * x + bf * y + cf):
        sf = _exact_side(k.lines[2], x, y)
    if sf <= 0 <= se:
        return _POLY_APRIME_FCE if k.above_3 else _TRI_APRIME_CE
    if abs(sh := ah * x + bh * y - ch) <= _ROUNDING * (ah * x + bh * y + ch):
        sh = _exact_side(k.lines[3], x, y)
    if k.above_3:
        return _POLY_APRIME_HBF if sh >= 0 and sf >= 0 else _TRI_APRIME_DH
    return _TRI_APRIME_BD if sd >= 0 >= sh else _TRI_APRIME_BC


def polygon_area_ratio(N: int) -> float:
    """area(ADA'E) / area(ABC), (N-1)^2 / (N(N+1)) correctly rounded; tends to 1 as N grows.

    The map from barycentric to raw coordinates is diagonal, so it keeps area
    ratios; in barycentric units ABC has area 1/2 and ADA'E (N-1)^2 / (2N(N+1)).
    """
    N = _check_n(N)
    return (N - 1) ** 2 / (N * (N + 1))  # int / int rounds once
