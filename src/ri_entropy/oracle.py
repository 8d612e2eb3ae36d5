"""Independent numerical verification of the closed forms.

Minimization of the reduced KL objective over the feasible set (the PPT
interval for 2(x)N, a convex polygon for 3(x)N), dense partial-transpose
eigenvalue tests, and a batch closed-form-vs-oracle comparison.  The
objective and the sets are convex, so a feasible state is its own minimum
and any other lies on the boundary: a safeguarded Newton search on the
slope along each polygon edge (or the interval), in lockstep over every
edge of every sample, started at the exact root of the slope times the
product of the q's, a polynomial of degree 1 (interval) or 2 (edge) in the
segment parameter.  Infinite KL values lose every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import Spin, _m_blocks, _reversed_blocks
from .closed_form import _value_2xn, _value_3xn, separability_threshold
from .geometry import ppt_polygon
from .states import NormalizedCoords, RIState, _check_n, _dense, _prefactors

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
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])  # for each of three outcomes, the other two

# (family, param) of the closed-form-vs-oracle campaign over every family
CAMPAIGNS = (("2xN", 0.5), ("2xN", 1.0), ("2xN", 1.5), ("2xN", 2.0),
             ("3x3", 3), ("3xN-odd", 5), ("3xN-odd", 7),
             ("3xN-even", 4), ("3xN-even", 6))


@dataclass(frozen=True)
class MinimizationReport:
    """Value, point and steps of an oracle minimum, its certified bracket width in
    the segment parameter s (widest polygon edge), and whether that met the tol."""
    optimum_value: float
    optimum_point: tuple  # (q*,) for the interval, (x, y) barycentric for the polygon
    iterations: int
    final_box_size: float
    converged: bool


@dataclass(frozen=True)
class VerificationSummary:
    family: str
    param: float
    samples: int
    seed: int
    tol: float
    max_abs_diff: float
    worst_input: tuple
    passed: bool


def _total(rows):
    """Sum over the outcome axis, row by row: a batch adds as its scalar calls do."""
    return sum(rows[1:], rows[0])


def _segment_search(p, q0, q1, tol: float):
    """Minimize KL(p || q0 + s (q1 - q0)) over s in [0, 1] for every column of the
    (outcomes, columns) array p, q0 and q1 broadcast to it, by a safeguarded Newton
    search on the slope f'.  Step 1 tests the ends and starts the rest at the root of
    F = f' prod q, a polynomial of degree outcomes - 1 with the sign of f' and no pole
    where a q is 0, kept 2^-53 inside the ends; later steps take Newton's step on F
    inside the bracket that the sign of f' shrinks, or bisect it.  A column freezes at
    a point of finite f' once f' changes sign across s -+ h, a bracket at most tol
    wide; a tol below the float grid runs to `_MAX_STEPS`.  Returns (points q, values,
    steps, widths); each point is the best of the search's point and the two ends."""
    on = p > 0.0
    n, dim = p.shape[1], len(p)
    s_out, widths, steps = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    live = np.flatnonzero(~(on & (q0 <= 0.0) & (q1 <= 0.0)).any(axis=0))
    # a, q at s = 0 and p of the live columns, shaped (3, outcomes, 1, columns)
    # against rows of points; an outcome off the support has q = 1 and adds 0
    coef = np.array((np.where(on, q1 - q0, 0.0), np.where(on, q0, 1.0), p))[:, :, None, live]
    h = max(0.25 * tol, 2.0 ** -52)
    probes = np.array([[-h], [0.0], [h]])
    step = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        def slopes(t):  # f' at points t stacked as (rows, columns), with a / q, p a / q, q
            a, b, pk = coef
            q = np.maximum(b + t * a, 0.0)
            u = a / q
            r = pk * u
            return -_total(r), u, r, q

        (d0, d1), _, _, q = slopes(np.array([[0.0], [1.0]]))
        hi = np.where(d0 >= 0.0, 0.0, 1.0)
        lo = np.where(d1 <= 0.0, hi, 0.0)
        # -F = f' prod q: the sum over k of p_k a_k times the other outcomes' q
        a, _, pk = coef
        if dim == 2:  # F is linear: its root is the secant root
            f0, f1 = _total(pk * a * q[::-1])
            s = f0 / (f0 - f1)
        else:  # -F = g0 + g1 s + g2 s^2, g0 = f0, g1 = f1 - f0 - g2: one leave-one-out
            # product gives -F at s = 0 and 1 and, with each a in place of q, g2
            f0, f1, g2 = _total(pk * a * np.concatenate((q, a), axis=1)[_OTHERS].prod(axis=1))
            g = np.array((f0, f1 - f0 - g2, g2))
            # scaled so that g1^2 cannot underflow; f0 >= 0 >= f1 puts one root in the
            # bracket (g2 < 0 if g1 > 0), taken in the form that does not cancel
            g0, g1, g2 = g / np.abs(g).max(axis=0)
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
            t = s + probes
            (dl, ds, dr), u, r, _ = slopes(t)
            lo = np.where(ds < 0.0, s, lo)
            hi = np.where(ds > 0.0, s, hi)
            x = s - ds / _total(u[:, 1] * (r[:, 1] + ds))  # F / F' = f' / sum u (r + f') at s
            newton = (x >= lo) & (x <= hi)
            width = t[2] - t[0]
            certified = ((dl <= 0.0) | (t[0] <= 0.0)) & ((dr >= 0.0) | (t[2] >= 1.0))
            done = certified & (width <= tol) & np.isfinite(ds)  # at a point of finite KL
            if step == _MAX_STEPS:  # the last certificate, else the bracket
                widths[live] = np.where(certified, width, hi - lo)
            s_next = np.where(newton, x, 0.5 * (lo + hi))
            if done.any():
                k = live[done]
                # an end of the open bracket may be a q = 0 barrier: keep s there
                s_out[k] = np.where((x > lo) & (x < hi) & (x >= t[0]) & (x <= t[2]), x, s)[done]
                widths[k], steps[k] = width[done], step
                keep = ~done
                live, s_next, lo, hi = live[keep], s_next[keep], lo[keep], hi[keep]
                coef = coef[..., keep]
            s = s_next
        s_out[live], steps[live] = s, step  # stopped by the cap
        # the ends and the point, ascending: argmin breaks ties to the smaller s
        cands = np.array((np.zeros(n), s_out, np.ones(n)))
        q = np.maximum((1.0 - cands) * q0[:, None] + cands * q1[:, None], 0.0)
        terms = p[:, None] * np.log(p[:, None] / q)
        np.copyto(terms, 0.0, where=~on[:, None])
        vals = np.maximum(_total(terms), 0.0)
    best = np.argmin(vals, axis=0)
    cols = np.arange(n)
    return q[:, best, cols], vals[best, cols], steps, widths


def _interval_search(j: Spin, ps: np.ndarray, tol: float):
    """Batch minimization of KL(p || q) over q in [0, pc = 2j/(2j+1)] for every p
    in `ps`, one segment from q = (0, 1) to (pc, 1 - pc): (q*, values, steps, widths)."""
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError(f"p must lie in [0, 1], got {ps}")
    pc = separability_threshold(j)
    q, vals, steps, widths = _segment_search(
        np.array((ps, 1.0 - ps)), np.array([[0.0], [1.0]]), np.array([[pc], [1.0 - pc]]), tol)
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
    xs_opt, ys_opt = xs.copy(), ys.copy()
    vals, widths = np.zeros_like(xs), np.zeros_like(xs)
    steps = np.zeros(len(xs), dtype=int)
    out = ~(dx * (ys - oy) - dy * (xs - ox) >= 0.0).all(axis=0)
    if out.any():
        m, n = int(out.sum()), len(poly)
        # one column per (state, edge), from each edge's start to its end
        p = np.repeat(np.array((xs, ys, 1.0 - xs - ys))[:, out], n, axis=1)
        q, *edge = _segment_search(p, np.tile(q0, m), np.tile(q1, m), tol)
        edge_vals, edge_steps, edge_widths = (c.reshape(m, n) for c in edge)
        rows, best = np.arange(m), np.argmin(edge_vals, axis=1)
        xs_opt[out], ys_opt[out] = q[:2, rows * n + best]
        vals[out] = edge_vals[rows, best]
        steps[out], widths[out] = edge_steps.max(axis=1), edge_widths.max(axis=1)
    return xs_opt, ys_opt, vals, steps, widths


def minimize_kl_over_polygon(N: int, coords: NormalizedCoords) -> MinimizationReport:
    """Minimize KL(rho || sigma) over sigma in the PPT polygon ADA'E, in barycentric
    coordinates, to a certified bracket of `_POLYGON_TOL` in each edge's s."""
    x, y, val, steps, width = _polygon_search(
        _check_n(N), np.array([coords.ahat_lo]), np.array([coords.ahat_mid]), _POLYGON_TOL)
    return MinimizationReport(optimum_value=float(val[0]),
                              optimum_point=(float(x[0]), float(y[0])),
                              iterations=int(steps[0]), final_box_size=float(width[0]),
                              converged=bool(width[0] <= _POLYGON_TOL))


def ppt_min_eigenvalue(state: RIState) -> float:
    """Smallest eigenvalue of the partial time-reversal of the dense state: one product
    over the reversed projectors gives its padded total-M blocks (`angular._m_blocks`),
    and one eigvalsh call solves them.  The padding's 1 is the most any eigenvalue of
    a reversed state can be, so it never lowers the minimum."""
    tj1, tj2 = state.j1.twice_j, state.j2.twice_j
    pad = _m_blocks(tj1 + 1, tj2 + 1)[1]
    return float(np.linalg.eigvalsh(
        _dense(state, _reversed_blocks(tj1, tj2)).reshape(pad.shape) + pad).min())


def verify_closed_form(family: str, param, samples: int, seed: int,
                       tol: float) -> VerificationSummary:
    """Compare the closed form against the oracle on seeded uniform samples.

    Families: "2xN" (param = j), "3x3", "3xN-odd", "3xN-even" (param = N).
    The family and N are checked once per campaign; each sample's closed-form
    value then comes from its family's value core, without a minimizer.  The
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
        closed = np.array([_value_2xn(j.twice_j, p) for p in ps.tolist()])
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
        u = np.sort(rng.random((samples, 2)), axis=1)
        xs, ys = u[:, 0], u[:, 1] - u[:, 0]
        closed = np.array([_value_3xn(N, NormalizedCoords(x, y))
                           for x, y in zip(xs.tolist(), ys.tolist())])
        orac = _polygon_search(N, xs, ys, _POLYGON_TOL)[2]
        inputs = (xs, ys)
        param_out = N
    else:
        raise ValueError(f"unknown family {family!r}")

    with np.errstate(invalid="ignore"):  # equal infinities differ by 0, not nan
        diffs = np.where(closed == orac, 0.0, np.abs(closed - orac))
    max_diff, worst = 0.0, ()  # no sample, no difference
    if samples:
        k = int(np.argmax(diffs))  # the first sample on ties
        max_diff, worst = float(diffs[k]), tuple(float(c[k]) for c in inputs)
    return VerificationSummary(family=family, param=float(param_out), samples=samples,
                               seed=seed, tol=tol, max_abs_diff=max_diff,
                               worst_input=worst, passed=max_diff <= tol)
