"""Exact angular-momentum coupling machinery.

Clebsch-Gordan coefficients are evaluated from the Racah closed-form sum
using exact integer arithmetic (squared factorial ratios as Fractions),
converting to floating point only at the very end.  All spins are stored
as doubled integers (2j) so half-integer values are exact.

Conventions:
  * Condon-Shortley phases throughout.
  * Product-basis index order: first-factor magnetic number varies
    slowest, m values descending from +j.  The flat index of the
    product state |j1 m1>|j2 m2> is (j1 - m1) * N2 + (j2 - m2).

Spins, coupling ranges and Clebsch-Gordan coefficients need no numpy; the
dense operators import it on their first call.  An RI state and its partial
time reversal commute with J_z, so they are block diagonal by total M, the
key i1 + i2 of the flat index (j1 - m1) * N2 + (j2 - m2): `_m_blocks`
holds those blocks, padded to one size, for the dense layer's eigen-solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Spin",
    "DenseOperator",
    "clebsch_gordan",
    "coupled_basis_vector",
    "projector",
    "rotation_y_pi",
    "partial_time_reversal",
    "coupling_range",
    "product_basis_index",
]

@dataclass(frozen=True, order=True, slots=True)
class Spin:
    """A spin quantum number, stored as the exact integer 2j."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, int) or self.twice_j < 0:
            raise ValueError(f"twice_j must be a non-negative integer, got {self.twice_j!r}")

    @classmethod
    def of(cls, j) -> "Spin":
        """Spin of j, a number or text such as '3/2' or '1.5'; j must be a half-integer."""
        try:
            tj = Fraction(j) * 2
        except (ValueError, ZeroDivisionError, OverflowError) as exc:  # inf: OverflowError
            raise ValueError(f"cannot parse spin {j!r}") from exc
        if tj.denominator != 1:
            raise ValueError(f"spin {j!r} is not an exact half-integer")
        return cls(int(tj))

    @property
    def j(self) -> float:
        return self.twice_j / 2

    @property
    def dim(self) -> int:
        """Dimension N = 2j + 1 of the spin-j representation."""
        return self.twice_j + 1

    def twice_m_values(self):
        """Doubled magnetic quantum numbers in descending order +j .. -j."""
        return range(self.twice_j, -self.twice_j - 1, -2)

    def __repr__(self):
        return f"Spin({self.twice_j}/2)" if self.twice_j % 2 else f"Spin({self.twice_j // 2})"


@dataclass(frozen=True, slots=True)
class DenseOperator:
    """A dense real or complex square matrix, optionally tagged with bipartite factor dims.

    A real input is stored as float64 and a complex one as complex128, so the
    real matrices of RI states, projectors and partial time reversals keep
    real (cheaper) eigendecompositions and products.
    """

    mat: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        import numpy as np
        mat = np.asarray(self.mat)
        mat = mat.astype(complex if np.iscomplexobj(mat) else float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        if self.dims is not None:
            n1, n2 = self.dims
            if n1 < 1 or n2 < 1 or n1 * n2 != mat.shape[0]:
                raise ValueError(f"factor dims {self.dims} inconsistent with dimension {mat.shape[0]}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _setstate(self, state) -> None:
    """__setstate__ of the package's frozen slotted dataclasses, from the list of field
    values that they pickle, or from the instance dict of a pickle written before they
    had slots, whose keys must be the fields.  Assigned after the decorator: 3.10's
    `dataclass(slots=True)` replaces one defined in the class body."""
    names = type(self).__slots__
    if isinstance(state, dict):
        if state.keys() != set(names):
            raise TypeError(f"cannot load {type(self).__name__} (fields {', '.join(names)}) "
                            f"from a state with the keys {', '.join(map(str, state))}")
        state = [state[name] for name in names]
    for name, value in zip(names, state):
        object.__setattr__(self, name, value)


Spin.__setstate__ = DenseOperator.__setstate__ = _setstate


def _fact_half(twice_n: int) -> int:
    """(twice_n/2)! for an even non-negative doubled integer."""
    if twice_n < 0 or twice_n % 2:
        raise ValueError(f"invalid doubled factorial argument {twice_n}")
    return factorial(twice_n // 2)


def _twice_m(m) -> int:
    tm = Fraction(m) * 2
    if tm.denominator != 1:
        raise ValueError(f"magnetic quantum number {m!r} is not a half-integer")
    return int(tm)


def _check_magnetic(j: Spin, m, label: str) -> int:
    tm = _twice_m(m)
    if abs(tm) > j.twice_j or (j.twice_j - tm) % 2:
        raise ValueError(f"invalid magnetic quantum number {label}={m!r} for {j}")
    return tm


def coupling_range(j1: Spin, j2: Spin) -> tuple[Spin, ...]:
    """Allowed total spins J = |j1-j2| .. j1+j2, ascending.

    Built once per (j1, j2) and shared: the result is an immutable tuple.
    """
    return _coupling_range(j1.twice_j, j2.twice_j)


# keyed on the doubled spins: ints hash faster than Spin instances
@lru_cache(maxsize=256)
def _coupling_range(tj1: int, tj2: int) -> tuple[Spin, ...]:
    return tuple(Spin(tJ) for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))


def product_basis_index(j1: Spin, tm1: int, j2: Spin, tm2: int) -> int:
    return ((j1.twice_j - tm1) // 2) * j2.dim + (j2.twice_j - tm2) // 2


def clebsch_gordan(j1: Spin, m1, j2: Spin, m2, J: Spin, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Returns 0 when M != m1 + m2 or when J is outside the coupling range.
    Raises ValueError for magnetic quantum numbers of invalid magnitude
    or parity.
    """
    tm1 = _check_magnetic(j1, m1, "m1")
    tm2 = _check_magnetic(j2, m2, "m2")
    tM = _check_magnetic(J, M, "M")
    tj1, tj2, tJ = j1.twice_j, j2.twice_j, J.twice_j
    if tM != tm1 + tm2:
        return 0.0
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0

    f = _fact_half
    pref = Fraction(tJ + 1)
    pref *= Fraction(f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ),
                     f(tj1 + tj2 + tJ + 2))
    pref *= (f(tJ + tM) * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1)
             * f(tj2 - tm2) * f(tj2 + tm2))

    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (f(2 * k) * f(tj1 + tj2 - tJ - 2 * k) * f(tj1 - tm1 - 2 * k)
                 * f(tj2 + tm2 - 2 * k) * f(tJ - tj2 + tm1 + 2 * k)
                 * f(tJ - tj1 - tm2 + 2 * k))
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    # exact square of the coefficient; take the root at the last moment
    square = pref * total * total
    return (1.0 if total > 0 else -1.0) * sqrt(float(square))


def coupled_basis_vector(j1: Spin, j2: Spin, J: Spin, M) -> np.ndarray:
    """|J M> expanded in the product basis, as a unit-norm real vector."""
    import numpy as np
    if J not in coupling_range(j1, j2):
        raise ValueError(f"J={J} outside coupling range of {j1}, {j2}")
    tM = _check_magnetic(J, M, "M")
    v = np.zeros(j1.dim * j2.dim)
    for tm1 in j1.twice_m_values():
        tm2 = tM - tm1
        if abs(tm2) <= j2.twice_j:
            v[product_basis_index(j1, tm1, j2, tm2)] = clebsch_gordan(
                j1, Fraction(tm1, 2), j2, Fraction(tm2, 2), J, Fraction(tM, 2))
    return v


def projector(j1: Spin, j2: Spin, J: Spin) -> DenseOperator:
    """Projector P_J = sum_M |J M><J M| onto the total-spin-J block.

    Built once per (j1, j2, J) and shared: the returned matrix is read-only.
    """
    return _projector(j1.twice_j, j2.twice_j, J.twice_j)


# keyed on the doubled spins, as _coupling_range is
@lru_cache(maxsize=128)
def _projector(tj1: int, tj2: int, tJ: int) -> DenseOperator:
    import numpy as np
    j1, j2, J = Spin(tj1), Spin(tj2), Spin(tJ)
    if J not in coupling_range(j1, j2):
        raise ValueError(f"J={J} outside coupling range of {j1}, {j2}")
    dim = j1.dim * j2.dim
    P = np.zeros((dim, dim))
    for tM in J.twice_m_values():
        v = coupled_basis_vector(j1, j2, J, Fraction(tM, 2))
        P += np.outer(v, v)
    return DenseOperator(P, dims=(j1.dim, j2.dim))


# keyed on the doubled spins, as _projector is; built on first use, not at import
@lru_cache(maxsize=64)
def _projector_stacks(tj1: int, tj2: int) -> tuple[np.ndarray, np.ndarray]:
    """The flattened P_J of the spins (tj1/2, tj2/2), J ascending, as one read-only
    (n_J, dim^2) stack, and the read-only stack of their partial time reversals."""
    import numpy as np
    ps = [_projector(tj1, tj2, J.twice_j) for J in _coupling_range(tj1, tj2)]
    stacks = (np.array([P.mat.ravel() for P in ps]),
              np.array([partial_time_reversal(P).mat.ravel() for P in ps]))
    for stack in stacks:
        stack.flags.writeable = False
    return stacks


# keyed on the factor dims; built on first use, as the stacks are
@lru_cache(maxsize=64)
def _m_blocks(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(take, pad, zero), read-only: the total-M blocks of the n1 n2 product basis.

    Index i1 n2 + i2 has M = j1 + j2 - i1 - i2, so an operator that commutes with J_z
    (an RI state, its partial time reversal) is block diagonal by i1 + i2: n1 + n2 - 1
    blocks of at most k = min(n1, n2).  `take` holds each block's positions in the
    raveled matrix, padded to k by position `zero`, entry (0, 1), which is off the
    blocks; `pad` is 1 on the padded diagonal."""
    import numpy as np
    key = np.add.outer(np.arange(n1), np.arange(n2)).ravel()
    k, dim, zero = min(n1, n2), n1 * n2, min(1, n1 * n2 - 1)
    idx = np.full((n1 + n2 - 1, k), -1)
    for K in range(n1 + n2 - 1):
        members = np.flatnonzero(key == K)
        idx[K, :len(members)] = members
    real = idx[:, :, None] >= 0
    take = np.where(real & real.swapaxes(1, 2), idx[:, :, None] * dim + idx[:, None, :], zero)
    pad = np.where(~real & np.eye(k, dtype=bool), 1.0, 0.0)
    take.flags.writeable = pad.flags.writeable = False
    return take, pad, zero


def rotation_y_pi(j: Spin) -> DenseOperator:
    """The pi-rotation about the y axis: V[m', m] = (-1)^(j-m) delta_{m', -m}."""
    import numpy as np
    V = np.zeros((j.dim, j.dim))
    for col, tm in enumerate(j.twice_m_values()):
        row = (j.twice_j + tm) // 2  # index of m' = -m
        V[row, col] = (-1.0) ** ((j.twice_j - tm) // 2)
    return DenseOperator(V)


def partial_time_reversal(op: DenseOperator) -> DenseOperator:
    """theta_2 = I (x) theta on the second factor, theta(B) = V B^T V+."""
    import numpy as np
    if op.dims is None:
        raise ValueError("partial_time_reversal needs an operator with factor dims")
    n1, n2 = op.dims
    # V = rotation_y_pi is anti-diagonal with V[-1-k, k] = (-1)^k, so
    # (V B^T V+)[r, c] = (-1)^(r+c) B[-1-c, -1-r]: transpose and reverse the
    # second factor's indices, then apply the signs
    sign = (-1.0) ** np.arange(n2)
    blocks = op.mat.reshape(n1, n2, n1, n2)[:, ::-1, :, ::-1].transpose(0, 3, 2, 1)
    out = blocks * np.multiply.outer(sign, sign)[None, :, None, :]
    return DenseOperator(out.reshape(n1 * n2, n1 * n2), dims=op.dims)
