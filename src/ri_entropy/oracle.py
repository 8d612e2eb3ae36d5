"""Independent numerical verification of the closed forms.

Minimization of the reduced KL objective over the feasible set (the PPT
interval for 2(x)N, a convex polygon for 3(x)N), the partial-transpose
eigenvalue test, and a batch closed-form-vs-oracle comparison.  The
objective and the sets are convex, so a feasible state is its own minimum
and any other lies on the boundary: a safeguarded Newton search on the
slope along each polygon edge (or the interval), in lockstep over every
edge of every sample, started at the exact root of the slope times the
product of the q's, a polynomial of degree 1 (interval) or 2 (edge) in the
segment parameter.  Infinite KL values lose every comparison.

The partial time reversal of an RI state is again U(x)U-invariant, a sum of
the P_K, so its spectrum is n_J numbers: one product of the state's alphas
with a per-spin-pair map built from the dense projectors and their
reversals, not from the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import Spin, _projector_stacks, _setstate
from .closed_form import _value_3xn, _values_2xn, separability_threshold
from .geometry import ppt_polygon
from .states import NormalizedCoords, RIState, _check_n, _density_scales, _prefactors

__all__ = [
    "MinimizationReport",
    "VerificationSummary",
    "minimize_kl_over_interval",
    "minimize_kl_over_polygon",
    "ppt_min_eigenvalue",
    "verify_closed_form",
    "CAMPAIGNS",
]

_MAX_STEPS = 200  # reached only when tol is below the float grid at the optimum
_INTERVAL_TOL = 1e-10  # certified bracket width in the parameter s = q / pc of the 2(x)N segment
_POLYGON_TOL = 1e-9    # certified bracket width in the edge parameter s of the 3(x)N search
_OTHERS = np.array([1, 0, 0]), np.array([2, 2, 1])  # for each of three outcomes, the other two
_ENDS = np.array([[0.0], [1.0], [0.0]])  # s = 0 and 1, one row each, and a spare row
_PROBES = np.array([[-1.0], [0.0], [1.0]])  # s - h, s, s + h in units of h
_CANDIDATES = np.array([[0.0], [0.0], [1.0]])  # s = 0, the search's point, s = 1: KL compared
_ZERO, _ONE = np.array(0.0), np.array(1.0)  # 0-d: numpy converts a Python float on each call

# (family, param) of the closed-form-vs-oracle campaign over every family
CAMPAIGNS = (("2xN", 0.5), ("2xN", 1.0), ("2xN", 1.5), ("2xN", 2.0),
             ("3x3", 3), ("3xN-odd", 5), ("3xN-odd", 7),
             ("3xN-even", 4), ("3xN-even", 6))


@dataclass(frozen=True, slots=True)
class MinimizationReport:
    """Value, point and steps of an oracle minimum, its certified bracket width in
    the segment parameter s (widest polygon edge), and whether that met the tol."""
    optimum_value: float
    optimum_point: tuple  # (q*,) for the interval, (x, y) barycentric for the polygon
    iterations: int
    final_box_size: float
    converged: bool


@dataclass(frozen=True, slots=True)
class VerificationSummary:
    family: str
    param: float
    samples: int
    seed: int
    tol: float
    max_abs_diff: float
    worst_input: tuple
    passed: bool


MinimizationReport.__setstate__ = VerificationSummary.__setstate__ = _setstate


def _total(rows):
    """Sum over the outcome axis: numpy adds 2 or 3 rows in order, as a batch's scalar calls do."""
    return np.add.reduce(rows, axis=0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _segment_search(p, q0, q1, tol: float):
    """Minimize KL(p || q0 + s (q1 - q0)) over s in [0, 1] for every column of the
    (outcomes, columns) array p, q0 and q1 broadcast to it, by a safeguarded Newton
    search on the slope f'.  Step 1 tests the ends and starts the rest at the root of
    F = f' prod q, a polynomial of degree outcomes - 1 with the sign of f' and no pole
    where a q is 0, kept 2^-53 inside the ends; later steps take Newton's step on F
    inside the bracket that the sign of f' shrinks, or bisect it.  A column freezes at
    a point of finite f' once f' changes sign across s -+ h, a bracket at most tol
    wide; a tol below the float grid runs to `_MAX_STEPS`.  Returns (points q, values,
    steps, widths); each point is the best of the search's point and the two ends.
    Arrays are (outcomes, 3 rows of points, columns), with p in each row so that most
    operands share one shape; e = -f' = sum p a / q."""
    n, dim = p.shape[1], len(p)
    dead = (p > _ZERO) & (np.maximum(q0, q1) <= _ZERO)  # q = 0 at both ends: KL = +inf
    p, q0, q1 = p[:, None].repeat(3, axis=1), q0[:, None], q1[:, None]
    on = p > _ZERO
    cands = _CANDIDATES.repeat(n, axis=1)
    s_out, widths, steps = cands[1], np.zeros(n), np.zeros(n, dtype=int)
    # a and q at s = 0; an outcome off the support has q = 1 and adds 0
    a, b, pk = np.where(on, q1 - q0, _ZERO), np.where(on, q0, _ONE), p
    cols = live = np.arange(n)
    if np.count_nonzero(dead):
        live = (~np.logical_or.reduce(dead, axis=0)).nonzero()[0]
        a, b, pk = a[..., live], b[..., live], pk[..., live]
    probes, step = max(0.25 * tol, 2.0 ** -52) * _PROBES, 1

    def descents(t):  # e at the points t, (rows, columns), with a / q, p a / q and q
        q = np.maximum(b + t * a, _ZERO)
        r = pk * (u := a / q)
        return _total(r), u, r, q

    (e0, e1, _), _, _, q = descents(_ENDS)
    hi = _ONE - (e0 <= _ZERO)  # 0 if f' >= 0 at s = 0, else 1
    lo = hi * (e1 >= _ZERO)  # hi if f' <= 0 at s = 1, else 0
    # -F = f' prod q: the sum over k of p_k a_k times the other outcomes' q
    if dim == 2:  # F is linear: its root is the secant root
        f0, f1, _ = _total(pk * a * q[::-1])
        s = f0 / (f0 - f1)
    else:  # -F = g0 + g1 s + g2 s^2, g0 = f0, g1 = f1 - f0 - g2: one leave-one-out product
        # gives -F at s = 0 and 1 and, with each a in place of q in the spare row, g2
        q[:, 2] = a[:, 0]
        f0, f1, g2 = g = _total(pk * a * (q[_OTHERS[0]] * q[_OTHERS[1]]))
        np.subtract(f1 - f0, g2, out=f1)  # g is now (g0, g1, g2)
        # scaled so that g1^2 cannot underflow; f0 >= 0 >= f1 puts one root in the
        # bracket (g2 < 0 if g1 > 0), taken in the form that does not cancel
        g0, g1, g2 = g / np.maximum.reduce(np.abs(g), axis=0)
        sq = np.sqrt(g1 * g1 - 4.0 * g0 * g2)
        s = np.where(g1 > 0.0, (g1 + sq) / (-2.0 * g2), 2.0 * g0 / (sq - g1))
    # an optimum within the float resolution of an end where a q is 0 puts the
    # root on that end, where the slope is infinite and every later step would
    # bisect toward it: start at least 2^-53 inside (at 1, the nearest float),
    # where the slope is finite and the probes reach the end
    s = np.minimum(np.maximum(s, 2.0 ** -53), 1.0 - 2.0 ** -53)
    s = np.where((s > lo) & (s < hi), s, 0.5 * (lo + hi))
    while live.size and step < _MAX_STEPS:
        step += 1
        tl, _, tr = t = s + probes
        e, u, r, _ = descents(t)
        el, es, er = e
        lo = np.where(es > _ZERO, s, lo)
        hi = np.where(es < _ZERO, s, hi)
        x = s + es / _total(u * (r - e))[1]  # F / F' = f' / sum u (r + f') at s
        width = tr - tl
        certified = ((el >= _ZERO) | (tl <= _ZERO)) & ((er <= _ZERO) | (tr >= _ONE))
        done = certified & (width <= tol) & np.isfinite(es)  # at a point of finite KL
        if step == _MAX_STEPS:  # the last certificate, else the bracket
            widths[live] = np.where(certified, width, hi - lo)
        if finished := np.count_nonzero(done):
            # an end of the open bracket may be a q = 0 barrier: keep s there
            point = np.where((x > lo) & (x < hi) & (x >= tl) & (x <= tr), x, s)
            if finished == live.size:  # the usual end, at step 2: store, and shrink nothing
                s_out[live], widths[live], steps[live] = point, width, step
                break
            k, keep = live[done], ~done
            s_out[k], widths[k], steps[k] = point[done], width[done], step
            live, x, lo, hi = live[keep], x[keep], lo[keep], hi[keep]
            a, b, pk = a[..., keep], b[..., keep], pk[..., keep]
        s = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))  # Newton's, else bisect
    else:
        s_out[live], steps[live] = s, step  # stopped by the cap
    # the ends and the point, ascending: argmin breaks ties to the smaller s
    q = np.maximum((_ONE - cands) * q0 + cands * q1, _ZERO)
    vals = np.maximum(_total(np.where(on, p * np.log(p / q), _ZERO)), _ZERO)
    best = vals.argmin(axis=0)
    return q[:, best, cols], vals[best, cols], steps, widths


def _interval_search(j: Spin, ps: np.ndarray, tol: float):
    """Batch minimization of KL(p || q) over q in [0, pc = 2j/(2j+1)] for every p
    in `ps`, one segment from q = (0, 1) to (pc, 1 - pc): (q*, values, steps, widths)."""
    if not ((ps >= 0.0) & (ps <= 1.0)).all():
        raise ValueError(f"p must lie in [0, 1], got {ps}")
    pc = separability_threshold(j)
    q, vals, steps, widths = _segment_search(
        np.array((ps, 1.0 - ps)), _ENDS[:2], np.array([[pc], [1.0 - pc]]), tol)
    return q[0], vals, steps, widths


def minimize_kl_over_interval(j: Spin, p: float) -> MinimizationReport:
    """Minimize KL(p || q) over q in [0, pc = 2j/(2j+1)], to a certified bracket
    of `_INTERVAL_TOL` in s = q / pc."""
    q, val, steps, width = _interval_search(j, np.array([float(p)]), _INTERVAL_TOL)
    return MinimizationReport(optimum_value=float(val[0]), optimum_point=(float(q[0]),),
                              iterations=int(steps[0]), final_box_size=float(width[0]),
                              converged=bool(width[0] <= _INTERVAL_TOL))


@lru_cache(maxsize=256)
def _polygon(N: int):
    """The PPT polygon ADA'E of a checked N as read-only arrays, built once per N:
    its barycentric vertices (n, 2); each edge's start and end columns q0, q1
    (3 outcomes, n edges); and each edge's origin and direction, (2, n, 1) each."""
    bx, by, _ = _prefactors(N)
    poly = np.array([(v.x / bx, v.y / by) for v in ppt_polygon(N)])
    q0 = np.array((*poly.T, 1.0 - poly[:, 0] - poly[:, 1]))
    q1 = np.roll(q0, -1, axis=1)
    built = (poly, q0, q1, q0[:2, :, None], (q1 - q0)[:2, :, None])
    for arr in built:
        arr.flags.writeable = False
    return built


def _polygon_search(N: int, xs: np.ndarray, ys: np.ndarray, tol: float):
    """Batch minimization of KL(rho || sigma) over sigma in the PPT polygon of a checked
    N: a state inside (each edge's cross product >= 0, without a tolerance: a point
    called outside is searched, which finds its value) is its own minimizer, any other
    the best of one segment search per edge.  Returns (x*, y*, values, steps, widths),
    a state's steps and width being the largest over its edges."""
    poly, q0, q1, (ox, oy), (dx, dy) = _polygon(N)
    # rows x*, y*, value, steps, width: a state inside keeps (x, y, 0, 0, 0)
    res = np.zeros((5, len(xs)))
    res[0], res[1] = xs, ys
    out = (~np.logical_and.reduce(dx * (ys - oy) - dy * (xs - ox) >= _ZERO, axis=0)).nonzero()[0]
    if m := len(out):
        n = len(poly)
        # one column per (state, edge), from each edge's start to its end
        p = np.array((xs, ys, 1.0 - xs - ys))[:, out].repeat(n, axis=1)
        q, vals, steps, widths = _segment_search(
            p, np.concatenate((q0,) * m, axis=1), np.concatenate((q1,) * m, axis=1), tol)
        best = vals.reshape(m, n).argmin(axis=1) + np.arange(0, m * n, n)
        res[:2, out], res[2, out] = q[:2, best], vals[best]
        res[3, out] = np.maximum.reduce(steps.reshape(m, n), axis=1)
        res[4, out] = np.maximum.reduce(widths.reshape(m, n), axis=1)
    return res[0], res[1], res[2], res[3].astype(int), res[4]


def minimize_kl_over_polygon(N: int, coords: NormalizedCoords) -> MinimizationReport:
    """Minimize KL(rho || sigma) over sigma in the PPT polygon ADA'E, in barycentric
    coordinates, to a certified bracket of `_POLYGON_TOL` in each edge's s."""
    return _polygon_report(_check_n(N), coords.ahat_lo, coords.ahat_mid)


def _polygon_report(N: int, x: float, y: float) -> MinimizationReport:
    """`minimize_kl_over_polygon` of a checked int N at the point (x, y) of the simplex."""
    x, y, val, steps, width = _polygon_search(N, np.array([x]), np.array([y]), _POLYGON_TOL)
    return MinimizationReport(optimum_value=float(val[0]),
                              optimum_point=(float(x[0]), float(y[0])),
                              iterations=int(steps[0]), final_box_size=float(width[0]),
                              converged=bool(width[0] <= _POLYGON_TOL))


@lru_cache(maxsize=64)
def _reversal_map(tj1: int, tj2: int) -> np.ndarray:
    """M[K, J] = tr(P_K theta(P_J)) / ((2K+1) sqrt(N1 N2 (2J+1))) of the spins (tj1/2,
    tj2/2), read-only: the partial time reversal of a U(x)U-invariant operator is
    U(x)U-invariant (Vollbrecht and Werner, PRA 64, 062307 (2001)), so that of the
    state sum_J alpha_J P_J / sqrt(N1 N2 (2J+1)) is sum_K (M alpha)_K P_K.  The
    projectors and their reversals are real and symmetric: one product of the two
    stacks of `angular._projector_stacks` gives every trace."""
    stack, images = _projector_stacks(tj1, tj2)
    ranks = np.arange(abs(tj1 - tj2), tj1 + tj2 + 1, 2) + 1.0  # 2K + 1 = tr P_K
    arr = stack @ images.T / np.multiply.outer(ranks, _density_scales(tj1, tj2))
    arr.flags.writeable = False
    return arr


def ppt_min_eigenvalue(state: RIState) -> float:
    """Smallest eigenvalue of the partial time reversal of the dense state: the least
    of its n_J eigenvalues M alpha, each that of a P_K (`_reversal_map`)."""
    return min(_reversal_map(state.j1.twice_j, state.j2.twice_j).dot(state.coeffs.alphas).tolist())


def verify_closed_form(family: str, param, samples: int, seed: int,
                       tol: float) -> VerificationSummary:
    """Compare the closed form against the oracle on seeded uniform samples.

    Families: "2xN" (param = j), "3x3", "3xN-odd", "3xN-even" (param = N).
    The family and N are checked once per campaign; the closed-form values then
    come without a minimizer: a 2(x)N campaign's in one pass of
    `closed_form._values_2xn`, bit for bit those of the scalar core, with libm's
    log and no numpy transcendental; a 3(x)N sample's from `_value_3xn`.  The
    oracle runs on all samples as one batch; 3(x)N samples are uniform on the
    simplex via sorted uniform spacings.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if not tol >= 0.0:  # NaN is refused too: no difference would pass it
        raise ValueError(f"tol must be >= 0, got {tol}")
    rng = np.random.default_rng(seed)

    if family == "2xN":
        j = param if isinstance(param, Spin) else Spin.of(param)
        separability_threshold(j)  # refuses j = 0 before any sample
        ps = rng.random(samples)
        closed = _values_2xn(j.twice_j, ps)
        orac = _interval_search(j, ps, _INTERVAL_TOL)[1]
        inputs = (ps,)
        param_out = j.j
    elif family in ("3x3", "3xN-odd", "3xN-even"):
        N = 3 if family == "3x3" else _check_n(param)
        if family == "3x3" and param not in (None, 3):
            raise ValueError("family 3x3 fixes N = 3")
        if family == "3xN-odd" and (N % 2 == 0 or N < 5):
            raise ValueError("family 3xN-odd needs odd N >= 5")
        if family == "3xN-even" and (N % 2 or N < 4):
            raise ValueError("family 3xN-even needs even N >= 4")
        # u holds multiples of 2^-53 in [0, 1), so u1 - u0 is exact and each
        # (x, y) is a point of the simplex that NormalizedCoords stores as it is
        u = np.sort(rng.random((samples, 2)), axis=1)
        xs, ys = u[:, 0], u[:, 1] - u[:, 0]
        closed = np.array([_value_3xn(N, x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        orac = _polygon_search(N, xs, ys, _POLYGON_TOL)[2]
        inputs = (xs, ys)
        param_out = N
    else:
        raise ValueError(f"unknown family {family!r}")

    with np.errstate(invalid="ignore"):  # equal infinities differ by 0, not nan
        diffs = np.where(closed == orac, 0.0, np.abs(closed - orac))
    max_diff, worst = 0.0, ()  # no sample, no difference
    if samples:
        k = int(diffs.argmax())  # the first sample on ties
        max_diff, worst = float(diffs[k]), tuple(float(c[k]) for c in inputs)
    return VerificationSummary(family=family, param=float(param_out), samples=samples,
                               seed=seed, tol=tol, max_abs_diff=max_diff,
                               worst_input=worst, passed=max_diff <= tol)
