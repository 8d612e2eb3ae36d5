"""Closed-form REE expressions for the supported RI families.

Families:
  * 2(x)N (j1 = 1/2, any j2): one-parameter family in the weight p of
    the lower total-spin block; piecewise formula with separability
    threshold p = 2j/(2j+1).
  * 3(x)3: four regions (separable rectangle ADA'E plus three
    triangles) with geometric minimizer construction.
  * 3(x)N, odd N >= 5: four regions; in the two flanking regions the
    minimizer sits on an edge of the separable polygon at a parameter
    that solves a quadratic.
  * 3(x)N, even N >= 4: the same expressions evaluate E_Gamma (the
    minimum over PPT states), a lower bound of the REE.

The quadratic for the A'FCE branch is re-derived from the stationarity
condition of the KL objective along the edge EA'; the resulting t1 is

    t1 = (N+1) y - N(N-3) x - (N-1)^2

(the source expression for t1 carries the opposite sign on the middle
term, which fails the oracle cross-check; see the test suite).  Both
roots are expressed in barycentric units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .angular import Spin
from .geometry import Point2, Region, classify_region, normalized_chart
from .states import (
    AlphaVector,
    NormalizedCoords,
    RIState,
    _block_weights,
    _discrete_kl,
    _prefactors,
    make_ri_state,
    normalized_to_raw,
    raw_to_normalized,
)

__all__ = [
    "REEResult",
    "RootInfo",
    "UnsupportedFamilyError",
    "ree_2xn",
    "ree_3x3",
    "ree_3xn_odd",
    "e_gamma_3xn_even",
    "ree_dispatch",
    "state_2xn",
    "p_of_state",
    "separability_threshold",
]

log = logging.getLogger(__name__)

DISC_TOL = 1e-9   # discriminants above -DISC_TOL are clamped to zero
SEG_TOL = 1e-9    # slack for the minimizer-on-segment guard


class UnsupportedFamilyError(ValueError):
    """Spin pair without a closed form (j1 >= 3/2)."""


@dataclass(frozen=True)
class RootInfo:
    """Quadratic-root bookkeeping for the odd-N flanking regions."""

    branch: str            # "a" (region A'FCE) or "b" (region A'DH)
    root: float            # root value in barycentric units
    t: float               # the linear coefficient t1 or t2
    minimizer_point: Point2  # raw coordinates of the minimizer


@dataclass(frozen=True)
class REEResult:
    value: float
    region: Region
    minimizer: AlphaVector
    quantity: str = "E_r"   # "E_r" or "E_Gamma"
    aux: RootInfo | None = None


def _xlogy(p: float, arg: float) -> float:
    """p * ln(arg) with the 0 * ln(0) = 0 convention."""
    if p == 0.0:
        return 0.0
    return p * math.log(arg)


# ---------------------------------------------------------------------------
# 2 (x) N family


def separability_threshold(j: Spin) -> float:
    """p = 2j/(2j+1), the PPT/separability boundary of the 2(x)N family."""
    if j.twice_j < 1:
        raise ValueError("need j >= 1/2 for the second spin")
    return j.twice_j / (j.twice_j + 1)


def state_2xn(j: Spin, p: float) -> RIState:
    """The 2(x)(2j+1) RI state with weight p on the lower total-spin block."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if j.twice_j < 1:
        raise ValueError("expected j2 >= j1")
    w = _block_weights(1, j.twice_j)[0]
    return make_ri_state(Spin(1), j, (p / w[0], (1.0 - p) / w[1]))


def p_of_state(state: RIState) -> float:
    """Weight of the lower block of a 2(x)N state."""
    if state.j1.twice_j != 1:
        raise ValueError("not a 2(x)N state")
    return _block_weights(1, state.j2.twice_j)[0][0] * state.coeffs.alphas[0]


def ree_2xn(j: Spin, p: float) -> REEResult:
    """REE of the 2(x)(2j+1) RI state with lower-block weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pc = separability_threshold(j)
    if p <= pc:
        value = 0.0
        p_star = p
        region = Region.SEPARABLE
    else:
        tj = j.twice_j
        value = _xlogy(p, (tj + 1) * p / tj) + _xlogy(1.0 - p, (tj + 1) * (1.0 - p))
        p_star = pc
        region = Region.ENTANGLED_INTERVAL
    return REEResult(value=max(value, 0.0), region=region,
                     minimizer=state_2xn(j, p_star).coeffs)


# ---------------------------------------------------------------------------
# 3 (x) 3


def ree_3x3(coords: NormalizedCoords) -> REEResult:
    """REE of a two-spin-1 RI state from its barycentric coordinates."""
    return _ree_3xn(3, coords, "E_r")


# ---------------------------------------------------------------------------
# 3 (x) N (N = 3 and odd N >= 5: E_r; even N >= 4: E_Gamma over the PPT polygon)


def _segment_root(c0: Point2, c1: Point2, s: float):
    """Point (1-s) c0 + s c1 in barycentric coordinates."""
    return ((1.0 - s) * c0.x + s * c1.x, (1.0 - s) * c0.y + s * c1.y)


def _pick_root(lo_root: float, hi_root: float, to_s, region_name: str) -> float:
    """Prefer the stated root branch; fall back if it leaves the segment."""
    s = to_s(lo_root)
    if -SEG_TOL <= s <= 1.0 + SEG_TOL:
        return lo_root
    s_other = to_s(hi_root)
    if -SEG_TOL <= s_other <= 1.0 + SEG_TOL:
        log.warning("root branch for region %s fell off the segment (s=%.3g); "
                    "using the other branch", region_name, s)
        return hi_root
    raise ArithmeticError(
        f"no quadratic root yields a minimizer on the segment for {region_name} "
        f"(s candidates {s}, {s_other})")


def _value_in_region(N: int, coords: NormalizedCoords, region: Region):
    """Closed form for a state evaluated under the formula of `region`.

    Returns (value, sigma, aux) with sigma the minimizing barycentric
    point.  The region is a parameter so that boundary points can be
    evaluated under both adjacent formulas (continuity tests).
    """
    x, y = coords.ahat_lo, coords.ahat_mid
    ch = normalized_chart(N)
    aux = None

    if region is Region.SEPARABLE:
        sigma = (x, y)
    elif region is Region.TRI_APRIME_CE:
        # N = 3: project from C onto the line EA' (sigma_y = 1/2)
        sigma = (x / (2.0 * (1.0 - y)) if 1.0 - y > 1e-15 else 0.0, 0.5)
    elif region is Region.TRI_APRIME_BC:
        # N = 3: the whole triangle shares the minimizer A'
        sigma = (ch.a_prime.x, ch.a_prime.y)
    elif region is Region.TRI_APRIME_BD:
        # N = 3: project from B onto the line DA' (sigma_x = 1/3)
        sigma = (1.0 / 3.0, 2.0 * y / (3.0 * (1.0 - x)) if 1.0 - x > 1e-15 else 0.0)
    elif region is Region.POLY_APRIME_HBF:
        sigma = (ch.a_prime.x, ch.a_prime.y)
    elif region is Region.POLY_APRIME_FCE:
        # minimizer on the edge EA' at parameter s = (N-1) a / (N-3)
        t1 = (N + 1) * y - N * (N - 3) * x - (N - 1) ** 2
        disc = t1 * t1 - 4.0 * N * (N - 1) ** 2 * (N - 3) * x
        if disc < -DISC_TOL:
            raise ArithmeticError(f"negative discriminant {disc} in region A'FCE")
        sq = math.sqrt(max(disc, 0.0))
        denom = 2.0 * (N - 1) ** 2
        a = _pick_root((-t1 - sq) / denom, (-t1 + sq) / denom,
                       lambda r: (N - 1) * r / (N - 3), "A'FCE")
        s = min(max((N - 1) * a / (N - 3), 0.0), 1.0)
        sigma = _segment_root(ch.e, ch.a_prime, s)
        aux = RootInfo("a", a, t1, _raw_point(N, sigma))
    elif region is Region.TRI_APRIME_DH:  # minimizer on the edge DA'
        t2 = ((N + 3) * (N - 1) ** 2 + 2.0 * N * (N * N - 5) * x
              + (N + 1) ** 2 * (N - 3) * y)
        disc = t2 * t2 - 8.0 * N * (N * N - 5) * (N - 1) ** 2 * (N + 3) * x
        if disc < -DISC_TOL:
            raise ArithmeticError(f"negative discriminant {disc} in region A'DH")
        sq = math.sqrt(max(disc, 0.0))
        denom = 4.0 * N * (N * N - 5)
        to_s = lambda r: (2.0 * N * (N * N - 5) * r / ((N + 3) * (N - 1)) - (N - 1)) / (N - 3)
        b = _pick_root((t2 + sq) / denom, (t2 - sq) / denom, to_s, "A'DH")
        s = min(max(to_s(b), 0.0), 1.0)
        sigma = _segment_root(ch.d, ch.a_prime, s)
        aux = RootInfo("b", b, t2, _raw_point(N, sigma))
    else:  # pragma: no cover
        raise ValueError(f"region {region} is not defined for N = {N}")
    value = _discrete_kl((x, y, coords.ahat_hi),
                         (sigma[0], sigma[1], 1.0 - sigma[0] - sigma[1]))
    return value, sigma, aux


def _ree_3xn(N: int, coords: NormalizedCoords, quantity: str) -> REEResult:
    region = classify_region(N, coords)
    value, sigma, aux = _value_in_region(N, coords, region)
    minimizer = normalized_to_raw(N, NormalizedCoords(*sigma)).coeffs
    return REEResult(value=value, region=region, minimizer=minimizer,
                     quantity=quantity, aux=aux)


def _raw_point(N: int, sigma) -> Point2:
    pre = _prefactors(N)
    return Point2(sigma[0] * pre[0], sigma[1] * pre[1])


def ree_3xn_odd(N: int, coords: NormalizedCoords) -> REEResult:
    """REE of a 3(x)N RI state, odd N >= 5."""
    if N % 2 == 0 or N < 5:
        raise ValueError("need odd N >= 5 (use ree_3x3 / e_gamma_3xn_even otherwise)")
    return _ree_3xn(N, coords, "E_r")


def e_gamma_3xn_even(N: int, coords: NormalizedCoords) -> REEResult:
    """E_Gamma (PPT-relative entropy, a lower bound of REE) for even N >= 4."""
    if N % 2 or N < 4:
        raise ValueError("need even N >= 4")
    return _ree_3xn(N, coords, "E_Gamma")


# ---------------------------------------------------------------------------
# dispatch


def ree_dispatch(j1: Spin, j2: Spin, alphas) -> REEResult:
    """Route an alpha-vector to the closed form for its spin family."""
    if j2 < j1:
        raise ValueError("expected j2 >= j1")
    return _ree_of_state(make_ri_state(j1, j2, alphas))


def _ree_of_state(state: RIState) -> REEResult:
    """Closed form for an already validated state, routed by its spin family."""
    j1, j2 = state.j1, state.j2
    if j1.twice_j == 1:
        return ree_2xn(j2, p_of_state(state))
    if j1.twice_j == 2:
        N = j2.dim
        coords = raw_to_normalized(state)
        if N == 3:
            return ree_3x3(coords)
        if N % 2:
            return ree_3xn_odd(N, coords)
        return e_gamma_3xn_even(N, coords)
    raise UnsupportedFamilyError(
        f"no closed form for j1 = {j1.j}; only j1 in {{1/2, 1}} is supported "
        "(the oracle-only fallback --force-oracle is likewise restricted)")
