"""Closed-form REE expressions for the supported RI families.

Families:
  * 2(x)N (j1 = 1/2, any j2): one-parameter family in the weight p of
    the lower total-spin block; piecewise formula with separability
    threshold p = 2j/(2j+1).
  * 3(x)N, N = 3 and odd N >= 5: four regions; in the two flanking
    regions the minimizer sits on an edge of the separable polygon at a
    parameter that solves a quadratic.  At N = 3 the quadratic is linear
    and its root is the paper's 3(x)3 construction: the projection from C
    onto EA' or from B onto DA'.
  * 3(x)N, even N >= 4: the same expressions evaluate E_Gamma (the
    minimum over PPT states), a lower bound of the REE.

The quadratic for the A'FCE branch is re-derived from the stationarity
condition of the KL objective along the edge EA'; the resulting t1 is

    t1 = (N+1) y - N(N-3) x - (N-1)^2

(the source expression for t1 carries the opposite sign on the middle
term, which fails the oracle cross-check; see the test suite).  Both
roots are expressed in barycentric units, and each flanking minimizer is
solved for in a form that divides by nothing that vanishes at N = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angular import Spin, _setstate
from .geometry import (
    _ENTANGLED_INTERVAL,
    _POLY_APRIME_FCE,
    _POLY_APRIME_HBF,
    _SEPARABLE,
    _TRI_APRIME_BC,
    _TRI_APRIME_BD,
    _TRI_APRIME_CE,
    _TRI_APRIME_DH,
    Point2,
    Region,
    _classify_region,
    _per_n,
    _PerN,
)
from .states import (
    _SPIN_ONE,
    AlphaVector,
    NormalizedCoords,
    RIState,
    _alpha_vector,
    _alpha_vector_2xn,
    _block_weights,
    _check_n,
    _checked_alphas,
    _coords_of_alphas,
    _discrete_kl,
    _new,
    _ri_state,
    _setters,
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

class UnsupportedFamilyError(ValueError):
    """Spin pair without a closed form (j1 >= 3/2)."""


@dataclass(frozen=True, slots=True)
class RootInfo:
    """Quadratic-root bookkeeping for the odd-N flanking regions."""

    branch: str            # "a" (region A'FCE) or "b" (region A'DH)
    root: float            # root value in barycentric units
    t: float               # the linear coefficient t1 or t2
    minimizer_point: Point2  # raw coordinates of the minimizer


@dataclass(frozen=True, slots=True)
class REEResult:
    value: float
    region: Region
    minimizer: AlphaVector
    quantity: str = "E_r"   # "E_r" or "E_Gamma"
    aux: RootInfo | None = None


RootInfo.__setstate__ = REEResult.__setstate__ = _setstate

# Positional builders, by bound slot setters: a closed form's fields are valid by construction.

_tuple_new = tuple.__new__  # Point2(x, y) is tuple.__new__(Point2, (x, y))
_set_branch, _set_root, _set_t, _set_minimizer_point = _setters(RootInfo)
_set_value, _set_region, _set_minimizer, _set_quantity, _set_aux = _setters(REEResult)


def _root_info(branch: str, root: float, t: float, minimizer_point: Point2) -> RootInfo:
    self = _new(RootInfo)
    _set_branch(self, branch)
    _set_root(self, root)
    _set_t(self, t)
    _set_minimizer_point(self, minimizer_point)
    return self


def _ree_result(value: float, region: Region, minimizer: AlphaVector, quantity: str,
                aux: RootInfo | None) -> REEResult:
    self = _new(REEResult)
    _set_value(self, value)
    _set_region(self, region)
    _set_minimizer(self, minimizer)
    _set_quantity(self, quantity)
    _set_aux(self, aux)
    return self


# ---------------------------------------------------------------------------
# 2 (x) N family


def separability_threshold(j: Spin) -> float:
    """p = 2j/(2j+1), the PPT/separability boundary of the 2(x)N family."""
    if j.twice_j < 1:
        raise ValueError("need j >= 1/2 for the second spin")
    return j.twice_j / (j.twice_j + 1)


def _checked_2xn(j: Spin, p) -> float:
    """p of a 2(x)(2j+1) state as a float, once p in [0, 1] and j >= 1/2 are checked."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if j.twice_j < 1:
        raise ValueError("expected j2 >= j1")
    return float(p)


def state_2xn(j: Spin, p: float) -> RIState:
    """The 2(x)(2j+1) RI state with weight p on the lower total-spin block.

    Valid by construction, so not checked again (`_alpha_vector_2xn`).
    """
    return _ri_state(_alpha_vector_2xn(j, _checked_2xn(j, p)), False)


def p_of_state(state: RIState) -> float:
    """Weight of the lower block of a 2(x)N state (`_p_of_alphas`)."""
    if state.coeffs.j1.twice_j != 1:
        raise ValueError("not a 2(x)N state")
    return _p_of_alphas(state.coeffs.j2.twice_j, state.coeffs.alphas)


def _p_of_alphas(tj: int, alphas: tuple[float, ...]) -> float:
    """p of 2(x)(tj+1) coefficients stored by `_checked_alphas`: their total may pass 1."""
    return min(_block_weights(1, tj)[0] * alphas[0], 1.0)


def _value_2xn(tj: int, p: float) -> float:
    """E_r of the 2(x)(tj+1) state with lower-block weight p, for a checked
    tj >= 1 and p in [0, 1]: the value alone, without a minimizer."""
    if p <= tj / (tj + 1):  # separable: at or below separability_threshold
        return 0.0
    q = 1.0 - p  # p > 0 here; the q term takes 0 ln 0 = 0
    return max(p * math.log((tj + 1) * p / tj) + (q * math.log((tj + 1) * q) if q else 0.0), 0.0)


def _values_2xn(tj: int, ps):
    """`_value_2xn(tj, p)` of every p of the float64 array ps, bit for bit, as a new array.

    numpy's -, * and / round as Python's float operators do, and the int operands enter
    as the floats that Python converts them to; each log is libm's `math.log`, taken
    on the entangled entries only.  A q = 0 argument is replaced by 1: q ln 1 = 0.0,
    the term the scalar form adds there."""
    import numpy as np

    out = np.zeros(len(ps))
    on = ps > tj / (tj + 1)  # the threshold as the scalar form rounds it
    p = ps[on]
    if n := len(p):
        q = 1.0 - p
        n1 = float(tj + 1)
        args = np.concatenate((n1 * p / float(tj), n1 * q))
        args[n:][q == 0.0] = 1.0
        logs = np.fromiter(map(math.log, args.tolist()), float, 2 * n)
        v = p * logs[:n] + q * logs[n:]
        v[v < 0.0] = 0.0  # max(v, 0.0)
        out[on] = v
    return out


def ree_2xn(j: Spin, p: float) -> REEResult:
    """REE of the 2(x)(2j+1) RI state with lower-block weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    p = float(p)
    pc = separability_threshold(j)  # refuses j < 1/2
    if p <= pc:
        return _ree_result(0.0, _SEPARABLE, _alpha_vector_2xn(j, p), "E_r", None)
    return _ree_result(_value_2xn(j.twice_j, p), _ENTANGLED_INTERVAL, _alpha_vector_2xn(j, pc),
                       "E_r", None)


# ---------------------------------------------------------------------------
# 3 (x) 3


def ree_3x3(coords: NormalizedCoords) -> REEResult:
    """REE of a two-spin-1 RI state from its barycentric coordinates: the 3(x)N form at N = 3."""
    return _ree_3xn(3, coords.ahat_lo, coords.ahat_mid)


# ---------------------------------------------------------------------------
# 3 (x) N (N = 3 and odd N >= 5: E_r; even N >= 4: E_Gamma over the PPT polygon)


def _segment_root(c0: Point2, c1: Point2, s: float):
    """Point (1-s) c0 + s c1 in barycentric coordinates."""
    return ((1.0 - s) * c0.x + s * c1.x, (1.0 - s) * c0.y + s * c1.y)


def _value_in_region(k: _PerN, x: float, y: float, region: Region):
    """Closed form for the state at the barycentric point (x, y), evaluated under
    the formula of `region`, from the `_PerN` k of N.

    Returns (value, sigma, root): sigma = (sigma_x, sigma_y, sigma_z), the
    minimizing barycentric point, has sigma_x, sigma_y >= 0 and
    sigma_x + sigma_y <= 1 in floats, and its sigma_z is the one the value
    is taken against; root is the (branch, root, t) of a flanking region,
    else None.  The region is a parameter so that boundary points can be
    evaluated under both adjacent formulas (continuity tests).
    """
    hi = max(1.0 - x - y, 0.0)  # NormalizedCoords.ahat_hi: x + y may round to 1
    if region is _SEPARABLE:
        return 0.0, (x, y, hi), None
    root = None
    if region is _POLY_APRIME_HBF or region is _TRI_APRIME_BC:
        # the whole region shares the minimizer A'
        sigma = k.a_prime
    elif region is _POLY_APRIME_FCE or region is _TRI_APRIME_CE:
        # minimizer on EA' at s = 2N(N-1) x / q, q = -t1 + sqrt disc, the root of
        # (N-3) s^2 + t1 s / (N-1) + N x = 0 (t1 < 0) for the root a = (N-3) s / (N-1)
        # of the paper's quadratic; disc is taken from the same quadratic in 1 - s, whose
        # constant c0 <= 0 is the A'-F form: no cancellation.  q = 0 only at C for N = 3
        n1, nn3, n1sq, c1k, n2, c0k, q4, r2, r1, scale = k.fce
        t1 = n1 * y - nn3 * x - n1sq               # (N+1) y - N(N-3) x - (N-1)^2
        c1 = -t1 - c1k                             # -t1 - 2(N-1)(N-3)
        c0 = n2 * x + n1 * y - c0k                 # 2N x + (N+1) y - 2(N-1)
        q = -t1 + math.sqrt(max(c1 * c1 - q4 * c0, 0.0))  # disc = c1^2 - 4(N-1)(N-3) c0
        s = min(r1 * x / q, 1.0) if q > 0.0 else 0.0
        sigma = _segment_root(k.e, k.a_prime, s)
        if region is _POLY_APRIME_FCE:
            root = ("a", r2 * x / q, t1 * scale)   # a = 2N(N-3) x / q
    elif region is _TRI_APRIME_DH or region is _TRI_APRIME_BD:
        # minimizer on DA' at s, the root of den s^2 + beta s - c = 0 with
        # den = (N+3)(N-1)(N-3) and c = (N-1)(N+1)^2 y >= 0, in the form that does not
        # cancel, for the root b = (den s + K) / M of M b^2 - t2 b + K x = 0, where
        # M = 2N(N^2-5) and K = (N+3)(N-1)^2
        K, M, p3, cn, den, scale = k.dh
        Py = p3 * y                                # (N+1)^2 (N-3) y
        beta = K - M * x - Py
        c = cn * y
        sq = math.sqrt(beta * beta + 4.0 * den * c)
        if beta > 0.0:
            s = 2.0 * c / (beta + sq)
        else:  # den = 0 only at N = 3, where beta = 0 only at B
            s = (sq - beta) / (2.0 * den) if den > 0.0 else 0.0
        sigma = _segment_root(k.d, k.a_prime, min(s, 1.0))
        if region is _TRI_APRIME_DH:
            root = ("b", (den * s + K) / M, (K + M * x + Py) * scale)
    else:  # pragma: no cover
        raise ValueError(f"region {region} is not defined for N = {k.n}")
    # sigma is on the PPT polygon, where the third coordinate is at least that
    # of A', 2/(N(N+1)); near A' at large N, 1 - x - y rounds below it
    sigma = (*sigma, max(1.0 - sigma[0] - sigma[1], k.floor))
    return _discrete_kl((x, y, hi), sigma), sigma, root


# The cores below take a checked int N and the floats of a point on the simplex,
# as a NormalizedCoords stores them: the public functions unpack their coords once.


def _value_3xn(N: int, x: float, y: float) -> float:
    """E_r (odd N) or E_Gamma (even N) at (x, y): the value alone, without a
    minimizer; the value of `_ree_3xn`."""
    k = _per_n(N)
    return _value_in_region(k, x, y, _classify_region(k, x, y))[0]


def _ree_3xn(N: int, x: float, y: float) -> REEResult:
    """E_r (odd N) or E_Gamma (even N) at (x, y); sigma needs no second check."""
    k = _per_n(N)
    region = _classify_region(k, x, y)
    value, (lo, mid, hi), root = _value_in_region(k, x, y, region)
    p_lo, p_mid, p_hi = k.prefactors  # the minimizer as `_alpha_vector_3xn` builds it
    minimizer = _alpha_vector(_SPIN_ONE, k.spin, (p_lo * lo, p_mid * mid, p_hi * hi))
    aux = None if root is None else _root_info(*root, _tuple_new(Point2, minimizer.alphas[:2]))
    return _ree_result(value, region, minimizer, k.quantity, aux)


def ree_3xn_odd(N: int, coords: NormalizedCoords) -> REEResult:
    """REE of a 3(x)N RI state, odd N >= 5."""
    N = _check_n(N)
    if N % 2 == 0 or N < 5:
        raise ValueError("need odd N >= 5 (use ree_3x3 / e_gamma_3xn_even otherwise)")
    return _ree_3xn(N, coords.ahat_lo, coords.ahat_mid)


def e_gamma_3xn_even(N: int, coords: NormalizedCoords) -> REEResult:
    """E_Gamma (PPT-relative entropy, a lower bound of REE) for even N >= 4."""
    N = _check_n(N)
    if N % 2 or N < 4:
        raise ValueError("need even N >= 4")
    return _ree_3xn(N, coords.ahat_lo, coords.ahat_mid)


# ---------------------------------------------------------------------------
# dispatch


def ree_dispatch(j1: Spin, j2: Spin, alphas) -> REEResult:
    """Route an alpha-vector, checked once, to the closed form for its spin family."""
    if j2.twice_j < j1.twice_j:
        raise ValueError("expected j2 >= j1")
    return _by_family(j1, j2, _checked_alphas(j1, j2, alphas)[0], ree_2xn, _ree_3xn)


def _by_family(j1: Spin, j2: Spin, alphas: tuple[float, ...], two_by_n, three_by_n):
    """Coefficients stored by `_checked_alphas` routed by spin family: two_by_n(j2, p) of a
    2(x)N vector, three_by_n(N, x, y) of a 3(x)N one; no closed form or oracle covers others."""
    if j1.twice_j == 1:
        return two_by_n(j2, _p_of_alphas(j2.twice_j, alphas))
    if j1.twice_j == 2:
        x, y = _coords_of_alphas(j2.twice_j + 1, alphas)
        return three_by_n(j2.twice_j + 1, x, y)
    raise UnsupportedFamilyError(
        f"no closed form for j1 = {j1.j}; only j1 in {{1/2, 1}} is supported "
        "(the oracle-only fallback --force-oracle is likewise restricted)")
