"""Independent numerical verification of the closed forms.

Derivative-free minimization of the reduced KL objective over the
feasible set (the PPT interval for 2(x)N, a convex polygon for 3(x)N),
dense partial-transpose eigenvalue tests, and a batch closed-form-vs-
oracle comparison.  The objective is convex and the feasible sets are
convex, so the minimum over a polygon is the state itself when it is
feasible and otherwise lies on the boundary; one golden-section search
per polygon edge, run in lockstep over every edge of every sample, finds
it.  Infinite KL values act as sentinels that lose every comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import Spin
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_STEPS = 200  # 0.618**200 ~ 1e-42: reached only when rounding stalls a bracket above tol
_INTERVAL_TOL = 1e-10  # final bracket width in q of the 2(x)N search
_POLYGON_TOL = 1e-9    # final bracket width in the edge parameter s of the 3(x)N search

# (family, param) of the closed-form-vs-oracle campaign over every family
CAMPAIGNS = (("2xN", 0.5), ("2xN", 1.0), ("2xN", 1.5), ("2xN", 2.0),
             ("3x3", 3), ("3xN-odd", 5), ("3xN-odd", 7),
             ("3xN-even", 4), ("3xN-even", 6))


@dataclass(frozen=True)
class MinimizationReport:
    optimum_value: float
    optimum_point: tuple  # (p*,) for the interval, (x, y) barycentric for the polygon
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


def _kl_from(p: np.ndarray, shape: tuple):
    """The discrete KL q -> sum_k p[k] ln(p[k] / q[k]) for a fixed `p`, elementwise.

    `p` is stacked as (outcomes, ...) and broadcasts against `shape`; `q` is
    stacked as (outcomes, rows, *shape), one row per set of points, and the
    result is (rows, *shape).  0 ln 0 = 0 and a support violation (p[k] > 0
    where q[k] <= 0) gives +inf: q is floored at 0, where p ln(p / 0) = +inf,
    and the terms of p[k] = 0 are set to 0.  Call it with numpy's divide and
    invalid warnings off, as `_golden_section` does.
    """
    # stored at the full shape of a one-row q: numpy's loops over operands of
    # one shape cost a fraction of broadcasting ones on these small arrays
    p = np.ascontiguousarray(np.broadcast_to(p[:, None], (len(p), 1, *shape)))
    off_support = ~(p > 0.0)

    def kl(q):
        terms = p * np.log(p / np.maximum(q, 0.0))
        np.copyto(terms, 0.0, where=off_support)
        return np.maximum(terms.sum(axis=0), 0.0)

    return kl


def _golden_section(f, lo, hi, tol: float):
    """Golden-section minimization of a convex f on every bracket [lo, hi] at once.

    `f` maps points stacked as (rows, *shape), one point per bracket in each
    row, to their values; it runs with numpy's divide and invalid warnings
    off.  All brackets step in lockstep until the widest is at most `tol`.
    Returns (points, values, steps, final widths); each point is the best of
    the final bracket and the original endpoints, ties going to the smaller.
    """
    lo0, hi0 = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo, hi = lo0, hi0
    w = hi - lo
    d = _INVPHI * w
    x1, x2 = hi - d, lo + d
    with np.errstate(divide="ignore", invalid="ignore"):
        f1, f2 = f(np.array((x1, x2)))
        steps = 0  # an empty batch (w.size == 0) takes no step
        while steps < _MAX_STEPS and w.size and w.max() > tol:
            left = f1 <= f2  # the minimum lies in [lo, x2]
            hi = np.where(left, x2, hi)
            lo = np.where(left, lo, x1)
            w = hi - lo
            d = _INVPHI * w
            x_new = np.where(left, hi - d, lo + d)
            f_new = f(x_new[None])[0]
            x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
            f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
            steps += 1
        cands = np.array((lo0, lo, x1, x2, hi, hi0))  # ascending, so argmin breaks ties to the smaller
        vals = f(cands)
    best = np.argmin(vals, axis=0)[None]
    points = np.take_along_axis(cands, best, axis=0)[0]
    values = np.take_along_axis(vals, best, axis=0)[0]
    return points, values, steps, w


def _interval_search(j: Spin, ps: np.ndarray, tol: float):
    """Batch minimization of KL(p || q) over q in [0, 2j/(2j+1)] for every p in `ps`."""
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError(f"p must lie in [0, 1], got {ps}")
    lo = np.zeros_like(ps)
    hi = np.full_like(ps, separability_threshold(j))
    kl = _kl_from(np.array((ps, 1.0 - ps)), ps.shape)
    return _golden_section(lambda q: kl(np.array((q, 1.0 - q))), lo, hi, tol)


def minimize_kl_over_interval(j: Spin, p: float) -> MinimizationReport:
    """Golden-section minimization of KL(p || q) over q in [0, 2j/(2j+1)],
    to a final bracket of `_INTERVAL_TOL` in q."""
    q, val, steps, width = _interval_search(j, np.array([float(p)]), _INTERVAL_TOL)
    return MinimizationReport(optimum_value=float(val[0]), optimum_point=(float(q[0]),),
                              iterations=steps, final_box_size=float(width[0]),
                              converged=bool(width[0] <= _INTERVAL_TOL))


def _normalized_polygon(N: int, polygon) -> np.ndarray:
    """Raw Point2 polygon -> barycentric (n, 2) array."""
    bx, by, _ = _prefactors(N)
    return np.array([(p.x / bx, p.y / by) for p in polygon])


def _inside_mask(poly: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized membership in a counterclockwise convex polygon, without a
    tolerance: a point called outside is searched, which finds its value."""
    mask = np.ones_like(xs, dtype=bool)
    n = len(poly)
    for i in range(n):
        ox, oy = poly[i]
        qx, qy = poly[(i + 1) % n]
        mask &= (qx - ox) * (ys - oy) - (qy - oy) * (xs - ox) >= 0.0
    return mask


def _polygon_search(poly: np.ndarray, xs: np.ndarray, ys: np.ndarray, tol: float):
    """Batch minimization of KL(rho || sigma) over sigma in a convex polygon.

    A feasible state is its own minimizer (value 0, no search); for the
    rest the minimum lies on the boundary and is the best of one
    golden-section search per edge, all edges of all states in lockstep.
    Returns (x*, y*, values, steps per state, final widths).
    """
    xs_opt, ys_opt = xs.copy(), ys.copy()
    vals = np.zeros_like(xs)
    steps = np.zeros(len(xs), dtype=int)
    widths = np.zeros_like(xs)
    out = ~_inside_mask(poly, xs, ys)
    if out.any():
        shape = (int(out.sum()), len(poly))
        kl = _kl_from(np.array((xs, ys, 1.0 - xs - ys))[:, out, None], shape)
        # x and y of each edge's start v0 and end v1, at the shape of one row of s
        v0x, v0y, v1x, v1y = (np.ascontiguousarray(np.broadcast_to(c, (1, *shape)))
                              for c in np.hstack((poly, np.roll(poly, -1, axis=0))).T)

        def along(s):  # the point (x, y) at parameter s of each edge
            u = 1.0 - s
            return u * v0x + s * v1x, u * v0y + s * v1y

        def f(s):
            qx, qy = along(s)
            return kl(np.array((qx, qy, 1.0 - qx - qy)))

        s, edge_vals, n_steps, edge_widths = _golden_section(
            f, np.zeros(shape), np.ones(shape), tol)
        best = np.argmin(edge_vals, axis=1)
        rows = np.arange(shape[0])
        qx, qy = along(s[None])
        xs_opt[out], ys_opt[out] = qx[0, rows, best], qy[0, rows, best]
        vals[out] = edge_vals[rows, best]
        steps[out] = n_steps
        widths[out] = edge_widths.max(axis=1)
    return xs_opt, ys_opt, vals, steps, widths


def minimize_kl_over_polygon(N: int, coords: NormalizedCoords) -> MinimizationReport:
    """Minimize KL(rho || sigma) over sigma in the PPT polygon ADA'E.

    The search runs in barycentric coordinates and `_POLYGON_TOL` bounds the
    final bracket in each edge's parameter s in [0, 1].
    """
    N = _check_n(N)
    poly = _normalized_polygon(N, ppt_polygon(N))
    x, y, val, steps, width = _polygon_search(
        poly, np.array([coords.ahat_lo]), np.array([coords.ahat_mid]), _POLYGON_TOL)
    return MinimizationReport(optimum_value=float(val[0]),
                              optimum_point=(float(x[0]), float(y[0])),
                              iterations=int(steps[0]), final_box_size=float(width[0]),
                              converged=bool(width[0] <= _POLYGON_TOL))


def ppt_min_eigenvalue(state: RIState) -> float:
    """Smallest eigenvalue of the partial time-reversal of the dense state: the
    reversal is linear, so the image is a sum of the reversed projectors."""
    return float(np.linalg.eigvalsh(_dense(state, 1))[0])


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
        poly = _normalized_polygon(N, ppt_polygon(N))
        orac = _polygon_search(poly, xs, ys, _POLYGON_TOL)[2]
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
