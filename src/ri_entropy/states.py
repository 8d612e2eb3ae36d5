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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angular import DenseOperator, Spin, coupling_range, projector

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

NEG_CLAMP = 1e-12     # alpha_J in [-NEG_CLAMP, 0) is clamped to 0
NORM_TOL = 1e-10      # strict normalization tolerance
RENORM_TOL = 1e-8     # deviations below this are silently renormalized


def block_weights(j1: Spin, j2: Spin) -> np.ndarray:
    """w_J = sqrt((2J+1)/(N1 N2)) for J ascending over the coupling range.

    Built once per (j1, j2) and shared: the returned array is read-only.
    """
    return _block_weights(j1.twice_j, j2.twice_j)[1]


@lru_cache(maxsize=256)
def _block_weights(tj1: int, tj2: int) -> tuple[tuple[float, ...], np.ndarray]:
    """w_J of the spins (tj1/2, tj2/2) as a tuple of floats and as a read-only array."""
    dim = (tj1 + 1) * (tj2 + 1)
    weights = tuple(math.sqrt(J.dim / dim) for J in coupling_range(Spin(tj1), Spin(tj2)))
    arr = np.array(weights)
    arr.flags.writeable = False
    return weights, arr


class _NotNormalized(ValueError):
    """AlphaVector's refusal of an unnormalized vector; `total` is its weighted sum."""


@dataclass(frozen=True)
class AlphaVector:
    """Validated block coefficients of an RI state, J ascending."""

    j1: Spin
    j2: Spin
    alphas: tuple[float, ...]

    def __post_init__(self):
        w = _block_weights(self.j1.twice_j, self.j2.twice_j)[1]
        if len(self.alphas) != len(w):
            raise ValueError(
                f"expected {len(w)} coefficients for ({self.j1}, {self.j2}), "
                f"got {len(self.alphas)}")
        vals = [float(a) for a in self.alphas]
        clamped = [0.0 if a < 0.0 else a for a in vals]
        # normalization is judged first, on the clamped values, so that
        # make_ri_state can repair any input whose total is within RENORM_TOL
        total = float(w @ np.asarray(clamped))
        if abs(total - 1.0) > NORM_TOL:
            exc = _NotNormalized(f"coefficients not normalized: weighted sum = {total}")
            exc.total = total
            raise exc
        if self.j2 < self.j1:
            raise ValueError("expected j2 >= j1")
        for a in vals:
            if not math.isfinite(a):
                raise ValueError("non-finite coefficient")
            if a < -NEG_CLAMP:
                raise ValueError(f"negative coefficient {a}")
        object.__setattr__(self, "alphas", tuple(clamped))

    @classmethod
    def _unchecked(cls, j1: Spin, j2: Spin, alphas: tuple[float, ...]) -> AlphaVector:
        """An AlphaVector stored as given, without the checks of __post_init__.

        Only for builders whose own checked inputs make the vector valid by
        construction (`normalized_to_raw`, `closed_form.state_2xn`): j2 >= j1,
        one finite float >= 0 per block and a weighted total within a few ulps
        of 1, so that __post_init__ would store the same floats.
        """
        self = object.__new__(cls)
        self.__dict__.update(j1=j1, j2=j2, alphas=alphas)  # frozen: bypass __setattr__
        return self

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alphas)

    @property
    def weights(self) -> np.ndarray:
        return block_weights(self.j1, self.j2)

    def probabilities(self) -> np.ndarray:
        """Block probabilities w_J * alpha_J (sum to 1)."""
        return self.weights * self.as_array()


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


@dataclass(frozen=True)
class NormalizedCoords:
    """Barycentric coordinates (alpha-hat_{j-1}, alpha-hat_j) of a 3(x)N state."""

    ahat_lo: float
    ahat_mid: float

    def __post_init__(self):
        lo, mid = float(self.ahat_lo), float(self.ahat_mid)
        if not (math.isfinite(lo) and math.isfinite(mid)):
            raise ValueError("non-finite coordinates")
        if lo < -NORM_TOL or mid < -NORM_TOL or lo + mid > 1.0 + NORM_TOL:
            raise ValueError(f"coordinates ({lo}, {mid}) outside the unit simplex")
        # points within NORM_TOL outside the simplex are moved onto it
        lo, mid = max(lo, 0.0), max(mid, 0.0)
        if lo + mid > 1.0:
            total = lo + mid
            lo, mid = lo / total, mid / total
        object.__setattr__(self, "ahat_lo", lo)
        object.__setattr__(self, "ahat_mid", mid)

    @property
    def ahat_hi(self) -> float:
        return max(1.0 - self.ahat_lo - self.ahat_mid, 0.0)  # lo + mid may round to 1


def make_ri_state(j1: Spin, j2: Spin, alphas) -> RIState:
    """Validate coefficients into an RIState.

    Small negatives (>= -1e-12) are clamped to zero; a weighted total off by
    less than 1e-8 is divided out and flagged as `renormalized`.  AlphaVector
    computes that total and makes every refusal.
    """
    vals = tuple(float(a) for a in alphas)
    try:
        return RIState(AlphaVector(j1, j2, vals))
    except _NotNormalized as exc:
        if abs(exc.total - 1.0) >= RENORM_TOL:
            raise
        vals = tuple(a / exc.total for a in vals)
    return RIState(AlphaVector(j1, j2, vals), renormalized=True)


def maximally_mixed(j1: Spin, j2: Spin) -> RIState:
    """The RI form of I/(N1 N2): alpha_J = sqrt((2J+1)/(N1 N2))."""
    return make_ri_state(j1, j2, block_weights(j1, j2))


def to_density(state: RIState) -> DenseOperator:
    """Dense matrix of an RI state; eigenvalue on block J is alpha_J / sqrt(N1 N2 (2J+1))."""
    j1, j2 = state.j1, state.j2
    dim = j1.dim * j2.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for J, a in zip(coupling_range(j1, j2), state.alphas()):
        rho += (a / math.sqrt(dim * J.dim)) * projector(j1, j2, J).mat
    return DenseOperator(rho, dims=(j1.dim, j2.dim))


def alpha_coords(op: DenseOperator, j1: Spin, j2: Spin) -> np.ndarray:
    """Raw alpha coordinates tr(P_J op) * sqrt(N1 N2 / (2J+1)), without validation.

    Useful for operators outside the state simplex (e.g. partial
    time-reversal images, which may have negative coordinates).
    """
    dim = j1.dim * j2.dim
    if op.dim != dim:
        raise ValueError(f"operator dimension {op.dim} does not match ({j1}, {j2})")
    return np.array([
        np.trace(projector(j1, j2, J).mat @ op.mat).real * math.sqrt(dim / J.dim)
        for J in coupling_range(j1, j2)
    ])


def twirl(op: DenseOperator, j1: Spin, j2: Spin) -> RIState:
    """Project a density matrix onto the RI family (group average over rotations)."""
    tr = np.trace(op.mat).real
    if abs(tr - 1.0) > NORM_TOL:
        raise ValueError(f"twirl input must have unit trace, got {tr}")
    return make_ri_state(j1, j2, alpha_coords(op, j1, j2))


def _discrete_kl(p: np.ndarray, q: np.ndarray) -> float:
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
    return _discrete_kl(rho.coeffs.probabilities(), sigma.coeffs.probabilities())


HERMITICITY_TOL = 1e-10


def _density_eigh(op: DenseOperator, label: str):
    m = op.mat
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise ValueError(f"{label} is not Hermitian")
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < -HERMITICITY_TOL:
        raise ValueError(f"{label} is not positive semidefinite (min eig {vals.min()})")
    return np.clip(vals, 0.0, None), vecs


def quantum_relative_entropy(a: DenseOperator, b: DenseOperator) -> float:
    """S(a||b) = tr(a ln a - a ln b) via Hermitian eigendecomposition.

    Returns +inf when the support of a is not contained in the support of b.
    """
    if a.dim != b.dim:
        raise ValueError("operators must have equal dimension")
    va, ua = _density_eigh(a, "first argument")
    vb, ub = _density_eigh(b, "second argument")

    support_cut = 1e-12
    tr_a_ln_a = float(sum(x * math.log(x) for x in va if x > support_cut))

    # <u_i| a |u_i> in the eigenbasis of b
    overlaps = np.einsum("ij,jk,ki->i", ub.conj().T, a.mat, ub).real
    tr_a_ln_b = 0.0
    for lam, w in zip(vb, overlaps):
        if lam <= support_cut:
            if w > 1e-10:
                return math.inf
        elif w > 0.0:
            tr_a_ln_b += w * math.log(lam)
    return max(tr_a_ln_a - tr_a_ln_b, 0.0)


@lru_cache(maxsize=256)
def _prefactors(N: int) -> tuple[float, float, float]:
    """Raw alpha_{j-1}, alpha_j, alpha_{j+1} of the simplex vertices B, C, A of
    a 3(x)N system: the factors from barycentric to raw coordinates.

    Built once per N and shared: the result is an immutable tuple.
    """
    return math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2))


def raw_to_normalized(state: RIState) -> NormalizedCoords:
    """Barycentric (ahat_lo, ahat_mid) of a 3(x)N state."""
    if state.j1.twice_j != 2:  # j2 >= j1 holds for every validated state
        raise ValueError("normalized coordinates are defined only for 3(x)N systems (j1 = 1)")
    pre = _prefactors(state.j2.dim)
    a = state.coeffs.alphas
    return NormalizedCoords(a[0] / pre[0], a[1] / pre[1])


def _plain_n(N):
    """A numpy-integer N as an int, whose arithmetic cannot overflow; any other N as given."""
    return int(N) if isinstance(N, np.integer) else N


_SPIN_ONE = Spin(2)


def normalized_to_raw(N: int, coords: NormalizedCoords) -> RIState:
    """RI state of a 3(x)N system from its barycentric coordinates.

    Valid by construction, so not checked again: coords has already refused
    or clamped its point, each coefficient prefactor * coordinate is >= 0, and
    as w_J times its prefactor is 1 the weighted total is within a few ulps
    of 1.  Every 3(x)N `REEResult.minimizer` is built here.
    """
    N = _plain_n(N)
    if N < 3:
        raise ValueError("need N >= 3")
    j2 = Spin(N - 1)
    lo, mid, hi = _prefactors(N)
    return RIState(AlphaVector._unchecked(
        _SPIN_ONE, j2, (lo * coords.ahat_lo, mid * coords.ahat_mid, hi * coords.ahat_hi)))
