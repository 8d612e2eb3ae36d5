"""Rotationally invariant state family.

An RI state of spins (j1, j2) is diagonal in the total-spin blocks and is
fully described by one real coefficient alpha_J per allowed J:

    rho = (N1 N2)^(-1/2) * sum_J alpha_J / sqrt(2J+1) * P_J

with alpha_J >= 0 and sum_J sqrt((2J+1)/(N1 N2)) alpha_J = 1.  The weight
w_J alpha_J with w_J = sqrt((2J+1)/(N1 N2)) is exactly the probability of
the J block, so the relative entropy between two RI states reduces to a
discrete KL divergence.

Conventions: natural logarithm everywhere, 0*ln(0) = 0 and support
violations give +inf.

numpy is imported only by the dense layer and the accessors that return
arrays, on their first call: validation and the closed forms run without it.
The dense layer solves the total-M blocks of its operators (see `angular`),
padded to one size and stacked into one eigen-solve per argument, when both
arguments of `quantum_relative_entropy` are 0 off them, else whole matrices.
Each call is a fixed number of numpy calls, whose overhead sets its time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

from .angular import DenseOperator, Spin, _m_blocks, _projector_stacks, coupling_range

__all__ = [
    "AlphaVector",
    "RIState",
    "NormalizedCoords",
    "block_weights",
    "make_ri_state",
    "maximally_mixed",
    "to_density",
    "alpha_coords",
    "twirl",
    "kl_alpha",
    "quantum_relative_entropy",
    "raw_to_normalized",
    "normalized_to_raw",
]

if TYPE_CHECKING:
    import numpy as np

NEG_CLAMP = 1e-12     # alpha_J in [-NEG_CLAMP, 0) is clamped to 0
NORM_TOL = 1e-10      # strict normalization tolerance
RENORM_TOL = 1e-8     # deviations below this are silently renormalized

# the private builders store the fields of a frozen dataclass as its __init__
# does, one object.__setattr__ each: bound once, they are module names
_new, _store = object.__new__, object.__setattr__


def block_weights(j1: Spin, j2: Spin) -> np.ndarray:
    """w_J = sqrt((2J+1)/(N1 N2)) for J ascending over the coupling range.

    Built once per (j1, j2), on first call, and shared: the returned array is read-only.
    """
    return _block_weight_array(j1.twice_j, j2.twice_j)


@lru_cache(maxsize=256)
def _block_weights(tj1: int, tj2: int) -> tuple[float, ...]:
    """w_J of the spins (tj1/2, tj2/2) as a tuple of floats."""
    dim = (tj1 + 1) * (tj2 + 1)
    return tuple(math.sqrt(J.dim / dim) for J in coupling_range(Spin(tj1), Spin(tj2)))


@lru_cache(maxsize=256)
def _block_weight_array(tj1: int, tj2: int) -> np.ndarray:
    """`_block_weights` as a read-only array."""
    import numpy as np
    arr = np.array(_block_weights(tj1, tj2))
    arr.flags.writeable = False
    return arr


def _checked_alphas(j1: Spin, j2: Spin, alphas, renorm_tol: float = RENORM_TOL):
    """(stored alphas, renormalized) of an outside coefficient vector, or its refusal.

    Each coefficient is floated once, then judged in order: length, weighted total
    of the values clamped at 0 (off 1 by more than NORM_TOL but less than `renorm_tol`,
    it is divided out and judged again), spin order, finiteness, sign >= -NEG_CLAMP.
    A vector that passes every check as it is, and so is stored as it is, is taken
    in one pass: a NaN never lowers the min but makes the total NaN, and a total
    within NORM_TOL of 1 is finite, so each coefficient is too.
    """
    w = _block_weights(j1.twice_j, j2.twice_j)
    vals = list(map(float, alphas))
    if len(vals) == len(w) and j2.twice_j >= j1.twice_j and min(vals) >= 0.0:
        try:
            if abs(math.fsum(map(mul, w, vals)) - 1.0) <= NORM_TOL:
                return tuple(vals), False
        except OverflowError:  # a total past the float range: refused below
            pass
    if len(vals) != len(w):
        raise ValueError(f"expected {len(w)} coefficients for ({j1}, {j2}), got {len(vals)}")
    for renormalized in (False, True):  # at most one repair, then judged again
        clamped = [0.0 if a < 0.0 else a for a in vals]
        # fsum adds the rounded products exactly and rounds once, and raises
        # only when finite terms sum past the float range: a total of inf
        try:
            total = math.fsum(map(mul, w, clamped))
        except OverflowError:
            total = math.inf
        if renormalized or not NORM_TOL < abs(total - 1.0) < renorm_tol:
            break
        vals = [a / total for a in vals]
    if abs(total - 1.0) > NORM_TOL:  # a NaN total is refused as non-finite below
        raise ValueError(f"coefficients not normalized: weighted sum = {total}")
    if j2.twice_j < j1.twice_j:
        raise ValueError("expected j2 >= j1")
    for a in vals:
        if not math.isfinite(a):
            raise ValueError("non-finite coefficient")
        if a < -NEG_CLAMP:
            raise ValueError(f"negative coefficient {a}")
    return tuple(clamped), renormalized


@dataclass(frozen=True)
class AlphaVector:
    """Validated block coefficients of an RI state, J ascending."""

    j1: Spin
    j2: Spin
    alphas: tuple[float, ...]

    def __post_init__(self):
        # no renormalization: a total off by more than NORM_TOL is refused
        object.__setattr__(self, "alphas", _checked_alphas(self.j1, self.j2, self.alphas, 0.0)[0])

    @staticmethod
    def _unchecked(j1: Spin, j2: Spin, alphas: tuple[float, ...]) -> AlphaVector:
        """An AlphaVector stored as given, without the checks of __post_init__: only for
        coefficients stored by `_checked_alphas` or built from checked inputs, which hold
        j2 >= j1 and finite floats >= 0 with a weighted total within a few ulps of 1."""
        self = _new(AlphaVector)
        _store(self, "j1", j1)  # the stores of the frozen __init__
        _store(self, "j2", j2)
        _store(self, "alphas", alphas)
        return self

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self.alphas)

    @property
    def weights(self) -> np.ndarray:
        return block_weights(self.j1, self.j2)

    def probabilities(self) -> np.ndarray:
        """Block probabilities w_J * alpha_J (sum to 1)."""
        return self.weights * self.as_array()


_alpha_vector = AlphaVector._unchecked  # the builders' name: no class attribute read per call


@dataclass(frozen=True)
class RIState:
    """An RI state, i.e. a validated alpha-vector."""

    coeffs: AlphaVector
    renormalized: bool = field(default=False, compare=False)

    @property
    def j1(self) -> Spin:
        return self.coeffs.j1

    @property
    def j2(self) -> Spin:
        return self.coeffs.j2

    def alphas(self) -> np.ndarray:
        return self.coeffs.as_array()


@dataclass(frozen=True, init=False)
class NormalizedCoords:
    """Barycentric coordinates (alpha-hat_{j-1}, alpha-hat_j) of a 3(x)N state."""

    ahat_lo: float
    ahat_mid: float

    def __init__(self, ahat_lo: float, ahat_mid: float):
        lo, mid = float(ahat_lo), float(ahat_mid)
        if not (math.isfinite(lo) and math.isfinite(mid)):
            raise ValueError("non-finite coordinates")
        if lo < -NORM_TOL or mid < -NORM_TOL or lo + mid > 1.0 + NORM_TOL:
            raise ValueError(f"coordinates ({lo}, {mid}) outside the unit simplex")
        # points within NORM_TOL outside the simplex are moved onto it
        lo, mid = 0.0 if lo < 0.0 else lo, 0.0 if mid < 0.0 else mid  # max(x, 0.0), no call
        if (total := lo + mid) > 1.0:
            lo, mid = lo / total, mid / total
        _store(self, "ahat_lo", lo)  # one store per field, as a generated frozen __init__ makes
        _store(self, "ahat_mid", mid)

    @property
    def ahat_hi(self) -> float:
        return max(1.0 - self.ahat_lo - self.ahat_mid, 0.0)  # lo + mid may round to 1


def _ri_state(coeffs: AlphaVector, renormalized: bool) -> RIState:
    """RIState(coeffs, renormalized) by the field stores of its frozen __init__,
    for a vector that is valid by construction or already checked."""
    self = _new(RIState)
    _store(self, "coeffs", coeffs)
    _store(self, "renormalized", renormalized)
    return self


def make_ri_state(j1: Spin, j2: Spin, alphas) -> RIState:
    """Validate coefficients into an RIState.

    Small negatives (>= -1e-12) are clamped to zero; a weighted total off by
    less than 1e-8 is divided out and flagged as `renormalized`.
    `_checked_alphas` makes every refusal and that repair.
    """
    alphas, renormalized = _checked_alphas(j1, j2, alphas)
    return _ri_state(_alpha_vector(j1, j2, alphas), renormalized)


def maximally_mixed(j1: Spin, j2: Spin) -> RIState:
    """The RI form of I/(N1 N2): alpha_J = sqrt((2J+1)/(N1 N2))."""
    return make_ri_state(j1, j2, _block_weights(j1.twice_j, j2.twice_j))


@lru_cache(maxsize=256)
def _density_scales(tj1: int, tj2: int) -> np.ndarray:
    """dim w_J = sqrt(dim (2J+1)) of the spins (tj1/2, tj2/2), read-only."""
    arr = (tj1 + 1) * (tj2 + 1) * _block_weight_array(tj1, tj2)
    arr.flags.writeable = False
    return arr


def to_density(state: RIState) -> DenseOperator:
    """Dense matrix of an RI state, sum_J alpha_J / sqrt(N1 N2 (2J+1)) P_J: one product with
    the stack of every P_J, a fresh float64 matrix stored by the frozen __init__'s stores."""
    import numpy as np
    tj1, tj2 = state.j1.twice_j, state.j2.twice_j
    mat = np.divide(state.coeffs.alphas, _density_scales(tj1, tj2)) @ _projector_stacks(tj1, tj2)[0]
    mat = mat.reshape((tj1 + 1) * (tj2 + 1), -1)
    mat.flags.writeable = False
    self = _new(DenseOperator)
    _store(self, "mat", mat)
    _store(self, "dims", (tj1 + 1, tj2 + 1))
    return self


def alpha_coords(op: DenseOperator, j1: Spin, j2: Spin) -> np.ndarray:
    """Raw alpha coordinates tr(P_J op) * sqrt(N1 N2 / (2J+1)), without validation.

    Useful for operators outside the state simplex (e.g. partial
    time-reversal images, which may have negative coordinates).
    """
    if op.dim != j1.dim * j2.dim:
        raise ValueError(f"operator dimension {op.dim} does not match ({j1}, {j2})")
    tj1, tj2 = j1.twice_j, j2.twice_j
    # P_J is real symmetric, so Re tr(P_J op) = sum_ik P_J[i, k] Re op[i, k]: one
    # O(n_J dim^2) product over the stack of every P_J; sqrt(N1 N2 / (2J+1)) = 1 / w_J
    return _projector_stacks(tj1, tj2)[0] @ op.mat.real.ravel() / _block_weight_array(tj1, tj2)


def twirl(op: DenseOperator, j1: Spin, j2: Spin) -> RIState:
    """Project a density matrix onto the RI family (group average over rotations)."""
    tr = op.mat.trace().real
    if abs(tr - 1.0) > NORM_TOL:
        raise ValueError(f"twirl input must have unit trace, got {tr}")
    return make_ri_state(j1, j2, alpha_coords(op, j1, j2).tolist())


def _discrete_kl(p, q) -> float:
    """sum p ln(p/q) with 0 ln 0 = 0 and support violation -> +inf."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total += pi * math.log(pi / qi)
    return max(total, 0.0)


def kl_alpha(rho: RIState, sigma: RIState) -> float:
    """Relative entropy between two RI states from their block coefficients."""
    if (rho.j1, rho.j2) != (sigma.j1, sigma.j2):
        raise ValueError("states live on different spin pairs")
    w = _block_weights(rho.j1.twice_j, rho.j2.twice_j)
    return _discrete_kl(tuple(map(mul, w, rho.coeffs.alphas)),
                        tuple(map(mul, w, sigma.coeffs.alphas)))


HERMITICITY_TOL = 1e-10
SUPPORT_CUT = 1e-12            # eigenvalues at or below this lie outside the support
SUPPORT_VIOLATION_TOL = 1e-10  # weight of a outside the support of b that makes S(a||b) = +inf


def _density_eigh(m: np.ndarray, skew: float, label: str, vectors: bool = True):
    """Eigenvalues, as a list not clipped at 0 (each use reads them past a cut above 0), and if
    `vectors` eigenvectors of a density's (blocks, k, k) blocks m, whose max |m - m^H| is `skew`."""
    import numpy as np
    if skew > HERMITICITY_TOL:
        raise ValueError(f"{label} is not Hermitian")
    vals, vecs = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    listed = vals.ravel().tolist()
    if min(listed) < -HERMITICITY_TOL:  # cheaper than vals.min() at these sizes
        raise ValueError(f"{label} is not positive semidefinite (min eig {vals.min()})")
    return listed, vecs


def _diagonal_blocks(a: DenseOperator, b: DenseOperator):
    """(blocks, k, k) stacks of a and b: their padded total-M blocks (`_m_blocks`) if
    both have the same dims and are 0 off the blocks, else the whole matrices.  a is
    padded with 0, which drops out of tr a ln a, and b with 1, whose ln is 0.  Each
    on-block entry is read once and the padding reads entry `zero`: with that entry
    0, the blocks hold every nonzero entry exactly when the matrix is 0 off them."""
    import numpy as np
    if a.dims is not None and a.dims == b.dims:
        take, pad, zero = _m_blocks(*a.dims)
        ma, mb = a.mat.ravel()[take], b.mat.ravel()[take]
        if a.mat.item(zero) == b.mat.item(zero) == 0 and (
                np.count_nonzero(a.mat) + np.count_nonzero(b.mat)
                == np.count_nonzero(ma) + np.count_nonzero(mb)):
            return ma, mb + pad
    return a.mat[None], b.mat[None]


def quantum_relative_entropy(a: DenseOperator, b: DenseOperator) -> float:
    """S(a||b) = tr(a ln a - a ln b) via Hermitian eigendecompositions of `_diagonal_blocks`.

    Returns +inf when the support of a is not contained in the support of b.
    """
    import numpy as np
    if a.dim != b.dim:
        raise ValueError("operators must have equal dimension")
    ma, mb = _diagonal_blocks(a, b)
    pair = np.array((ma, mb))  # both arguments' checks in one pass each
    finite = np.isfinite(pair).all()  # refused before any arithmetic on it, which would warn
    if not (finite or np.isfinite(ma).all()):
        raise ValueError("first argument has a non-finite entry")
    pair = pair if finite else pair[:1]  # every check of the first argument comes first
    skews = np.maximum.reduce(np.abs(pair - pair.conj().swapaxes(2, 3)), axis=(1, 2, 3))
    va, _ = _density_eigh(ma, skews[0], "first argument", vectors=False)
    if not finite:
        raise ValueError("second argument has a non-finite entry")
    vb, ub = _density_eigh(mb, skews[1], "second argument")

    # one correctly rounded sum: builtin sum() rounds differently from Python 3.12 on
    tr_a_ln_a = math.fsum(x * math.log(x) for x in va if x > SUPPORT_CUT)

    # <u_i| a |u_i> in the eigenbasis of b: one product per block, then row sums
    overlaps = np.add.reduce((ub.conj().swapaxes(1, 2) @ ma) * ub.swapaxes(1, 2), axis=2).real
    tr_a_ln_b = 0.0
    for lam, w in zip(vb, overlaps.ravel().tolist()):
        if lam <= SUPPORT_CUT:
            if w > SUPPORT_VIOLATION_TOL:
                return math.inf
        elif w > 0.0:
            tr_a_ln_b += w * math.log(lam)
    return max(tr_a_ln_a - tr_a_ln_b, 0.0)


def _check_n(N, minimum: int = 3) -> int:
    """N of a 3(x)N system as an int, whose arithmetic cannot overflow.

    An int or numpy integer >= `minimum` is accepted; anything else is refused.
    A numpy integer exists only once numpy is loaded, so numpy is not imported here.
    """
    if type(N) is int and N >= minimum:
        return N
    np = sys.modules.get("numpy")
    if not (isinstance(N, int) or np is not None and isinstance(N, np.integer)) or N < minimum:
        raise ValueError(f"need integer N >= {minimum}, got {N!r}")
    return int(N)


@lru_cache(maxsize=256)
def _prefactors(N: int) -> tuple[float, float, float]:
    """Raw alpha_{j-1}, alpha_j, alpha_{j+1} of the simplex vertices B, C, A of
    a 3(x)N system: the factors from barycentric to raw coordinates.

    Built once per N and shared: the result is an immutable tuple.
    """
    return math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2))


def raw_to_normalized(state: RIState) -> NormalizedCoords:
    """Barycentric (ahat_lo, ahat_mid) of a 3(x)N state (`_coords_of_alphas`)."""
    if state.coeffs.j1.twice_j != 2:  # j2 >= j1 holds for every validated state
        raise ValueError("normalized coordinates are defined only for 3(x)N systems (j1 = 1)")
    lo, mid = _coords_of_alphas(state.coeffs.j2.twice_j + 1, state.coeffs.alphas)
    self = _new(NormalizedCoords)
    _store(self, "ahat_lo", lo)
    _store(self, "ahat_mid", mid)
    return self


def _coords_of_alphas(N: int, a: tuple[float, ...]) -> tuple[float, float]:
    """Barycentric (lo, mid) of 3(x)N coefficients stored by `_checked_alphas`: finite, >= 0."""
    pre = _prefactors(N)
    lo, mid = a[0] / pre[0], a[1] / pre[1]
    if lo + mid > 1.0:  # a total accepted above 1: the only point NormalizedCoords can change
        coords = NormalizedCoords(lo, mid)
        return coords.ahat_lo, coords.ahat_mid
    return lo, mid


_SPIN_HALF, _SPIN_ONE = Spin(1), Spin(2)


@lru_cache(maxsize=256)
def _spin_of_n(N: int) -> Spin:
    """Spin(N - 1), the second spin of a 3(x)N system, built once per N."""
    return Spin(N - 1)


def _alpha_vector_2xn(j: Spin, p: float) -> AlphaVector:
    """Alpha-vector of the 2(x)(2j+1) state with lower-block weight p.

    Valid by construction for j >= 1/2 and a float p in [0, 1]: the
    coefficients p / w_0 and (1 - p) / w_1 are >= 0 and their weighted
    total is within a few ulps of 1.
    """
    w = _block_weights(1, j.twice_j)
    return _alpha_vector(_SPIN_HALF, j, (p / w[0], (1.0 - p) / w[1]))


def _alpha_vector_3xn(N: int, lo: float, mid: float, hi: float) -> AlphaVector:
    """Alpha-vector of the barycentric point (lo, mid, hi) of a 3(x)N system.

    Valid by construction for an int N >= 3 and lo, mid, hi >= 0 summing to 1
    up to rounding: w_J times its prefactor is 1, so the weighted total is
    within a few ulps of 1.
    """
    p_lo, p_mid, p_hi = _prefactors(N)
    return _alpha_vector(_SPIN_ONE, _spin_of_n(N), (p_lo * lo, p_mid * mid, p_hi * hi))


def normalized_to_raw(N: int, coords: NormalizedCoords) -> RIState:
    """RI state of a 3(x)N system from its barycentric coordinates.

    Valid by construction (`_alpha_vector_3xn`): coords has already refused
    or clamped its point.
    """
    return _ri_state(_alpha_vector_3xn(
        _check_n(N), coords.ahat_lo, coords.ahat_mid, coords.ahat_hi), False)
