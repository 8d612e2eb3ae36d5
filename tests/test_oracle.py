"""Tests for the independent numerical oracles."""

import hashlib
import math

import numpy as np
import pytest

import ri_entropy.oracle
from ri_entropy.angular import Spin
from ri_entropy.closed_form import (
    _value_3xn,
    ree_2xn,
    ree_3xn_odd,
    ree_dispatch,
    separability_threshold,
    state_2xn,
)
from ri_entropy.geometry import simplex_vertices
from ri_entropy.oracle import (
    _INTERVAL_TOL,
    _MAX_STEPS,
    _POLYGON_TOL,
    CAMPAIGNS,
    _interval_search,
    _polygon,
    _polygon_search,
    _segment_search,
    minimize_kl_over_interval,
    minimize_kl_over_polygon,
    ppt_min_eigenvalue,
    verify_closed_form,
)
from ri_entropy.states import (
    NormalizedCoords,
    make_ri_state,
    maximally_mixed,
    normalized_to_raw,
    quantum_relative_entropy,
    to_density,
)
from simd_dispatch import run_avx512_off
from test_closed_form import ree_3xn, simplex_samples, xy


def simplex_points(n: int, seed: int):
    """n seeded uniform barycentric points (x, y) by sorted uniform spacings."""
    u = np.sort(np.random.default_rng(seed).random((n, 2)), axis=1)
    return u[:, 0], u[:, 1] - u[:, 0]


# coordinates within the float resolution of 0, down to the smallest subnormal
TINY = (5e-324, 1e-323, 1e-310, 1e-300, 1e-100, 1e-17, 1e-12, 1e-8)


def boundary_sweep(N: int):
    """300 seeded uniform states, and for each tiny c the states with x, y or the
    third coordinate c whose other two split the rest 1:99, 1:1, 99:1 or 1:0."""
    xs, ys = simplex_points(300, seed=N % 1000)
    pts = list(zip(xs.tolist(), ys.tolist()))
    for c in TINY:
        for w in (0.01, 0.5, 0.99, 1.0 - c):
            pts += [(c, w * (1 - c)), (w * (1 - c), c), (w * (1 - c), (1 - w) * (1 - c))]
    return pts


class TestIntervalOracle:
    def test_separable_input_is_its_own_minimizer(self):
        report = minimize_kl_over_interval(Spin(1), 0.3)
        assert report.optimum_value == pytest.approx(0.0, abs=1e-12)
        assert report.optimum_point[0] == pytest.approx(0.3, abs=1e-6)

    def test_maximal_input(self):
        report = minimize_kl_over_interval(Spin(1), 1.0)
        assert report.optimum_value == pytest.approx(math.log(2), abs=1e-10)
        assert report.optimum_point[0] == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form(self):
        report = minimize_kl_over_interval(Spin(2), 0.95)
        assert report.optimum_value == pytest.approx(
            ree_2xn(Spin(2), 0.95).value, abs=1e-8)

    def test_converged_implies_small_box(self):
        report = minimize_kl_over_interval(Spin(1), 0.8)
        assert report.converged and report.final_box_size <= _INTERVAL_TOL

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    def test_search_reaches_its_tol(self, tol):
        ps = np.random.default_rng(6).random(30)
        steps, widths = _interval_search(Spin(3), ps, tol)[2:]
        assert widths.max() <= tol and steps.max() < _MAX_STEPS

    def test_unreachable_tol_stops_unconverged(self, monkeypatch):
        # rounding stalls the bracket far above 1e-300; the search must still end
        monkeypatch.setattr(ri_entropy.oracle, "_INTERVAL_TOL", 1e-300)
        report = minimize_kl_over_interval(Spin(1), 0.8)
        assert not report.converged and report.final_box_size > 1e-300
        assert report.iterations == _MAX_STEPS
        assert report.optimum_value == pytest.approx(ree_2xn(Spin(1), 0.8).value, abs=1e-15)

    def test_batch_equals_scalar_calls(self):
        j = Spin(3)
        ps = np.random.default_rng(5).random(40)
        q, vals, steps, widths = _interval_search(j, ps, 1e-10)
        for k, p in enumerate(ps):
            report = minimize_kl_over_interval(j, float(p))
            assert report.optimum_value == vals[k]
            assert report.optimum_point == (q[k],)
            assert report.final_box_size == widths[k]
            assert report.iterations == steps[k]

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            minimize_kl_over_interval(Spin(1), -0.5)


class TestPolygonOracle:
    def test_interior_state_gives_zero(self):
        coords = NormalizedCoords(0.1, 0.1)
        report = minimize_kl_over_polygon(5, coords)
        assert report.optimum_value == 0.0
        assert report.optimum_point == (0.1, 0.1)
        assert report.iterations == 0 and report.converged

    @pytest.mark.parametrize("N", [3, 4, 7])
    def test_converged_implies_small_box(self, N):
        xs, ys = simplex_points(30, seed=40 + N)
        for x, y in zip(xs, ys):
            report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
            assert report.converged and report.final_box_size <= _POLYGON_TOL

    @pytest.mark.parametrize("N", [3, 4, 7])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_search_reaches_its_tol(self, N, tol):
        xs, ys = simplex_points(30, seed=40 + N)
        steps, widths = _polygon_search(N, xs, ys, tol)[3:]
        assert widths.max() <= tol and steps.max() < _MAX_STEPS

    def test_unreachable_tol_stops_unconverged(self, monkeypatch):
        monkeypatch.setattr(ri_entropy.oracle, "_POLYGON_TOL", 1e-300)
        report = minimize_kl_over_polygon(5, NormalizedCoords(1.0, 0.0))
        assert not report.converged and report.final_box_size > 1e-300
        assert report.iterations == _MAX_STEPS
        assert report.optimum_value == pytest.approx(math.log(5 / 3), abs=1e-12)

    @pytest.mark.parametrize("N", [3, 6, 9])
    def test_batch_equals_scalar_calls(self, N):
        xs, ys = simplex_points(40, seed=70 + N)
        bx, by, vals, steps, widths = _polygon_search(N, xs, ys, 1e-9)
        assert (vals == 0.0).any() and (vals > 0.0).any()  # both branches taken
        for k, (x, y) in enumerate(zip(xs, ys)):
            report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
            assert report.optimum_value == vals[k]
            assert report.optimum_point == (bx[k], by[k])
            assert report.iterations == steps[k]
            assert report.final_box_size == widths[k]

    def test_polygon_is_built_once_read_only(self):
        """ADA'E's vertices, edge columns, origins and directions, shared per N."""
        poly, q0, q1, origin, direction = built = _polygon(7)
        assert _polygon(7) is built
        assert not any(arr.flags.writeable for arr in built)
        assert (q0[:2].T == poly).all() and (q1[:2].T == np.roll(poly, -1, axis=0)).all()
        assert (origin[:, :, 0].T == poly).all()
        assert (direction[:, :, 0].T == np.roll(poly, -1, axis=0) - poly).all()

    def test_vertex_c_n3(self):
        report = minimize_kl_over_polygon(3, NormalizedCoords(0.0, 1.0))
        assert report.optimum_value == pytest.approx(math.log(2), abs=1e-8)
        # optimum on segment EA' (the y = 1/2 line)
        assert report.optimum_point[1] == pytest.approx(0.5, abs=1e-6)

    def test_vertex_b_n5(self):
        report = minimize_kl_over_polygon(5, NormalizedCoords(1.0, 0.0))
        assert report.optimum_value == pytest.approx(math.log(5 / 3), abs=1e-8)
        # optimum at A' = ((N-2)/N, 2/(N+1)) = (3/5, 1/3)
        assert report.optimum_point == pytest.approx((0.6, 1 / 3), abs=1e-5)

    @pytest.mark.parametrize("N", [7, 10**8 + 1])
    def test_points_just_outside_an_edge_are_searched(self, N):
        """A state 1e-13 to 1e-11 outside D-A' or A'-E is not taken as its own
        minimizer, so the oracle meets the closed form at every N (an absolute
        1e-12 tolerance called half of them inside, value 0)."""
        poly = _polygon(N)[0]
        pts = []
        for i in (1, 2):  # the edges D-A' and A'-E, the two inside the simplex
            (ox, oy), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
            length = math.hypot(qx - ox, qy - oy)
            nx, ny = (qy - oy) / length, -(qx - ox) / length  # outward, as poly is counterclockwise
            for f in np.linspace(0.01, 0.99, 50):
                for d in (1e-13, 1e-12, 1e-11):
                    pts.append((ox + f * (qx - ox) + d * nx, oy + f * (qy - oy) + d * ny))
        xs, ys = (np.array(c) for c in zip(*pts))
        orac, steps = _polygon_search(N, xs, ys, _POLYGON_TOL)[2:4]
        assert (steps > 0).all()  # each one searched, none taken for its own minimizer
        closed = [ree_3xn_odd(N, NormalizedCoords(x, y)).value for x, y in pts]
        assert np.abs(orac - closed).max() <= 1e-15

    @pytest.mark.parametrize("N", [3, 5, 4])
    def test_one_sided_slack_vs_closed_form(self, N):
        """The oracle never undercuts the closed form by more than 1e-9 and
        never exceeds it by more than 1e-6."""
        for coords in simplex_samples(40, seed=900 + N):
            closed = ree_3xn(N, coords).value
            orac = minimize_kl_over_polygon(N, coords).optimum_value
            assert orac >= closed - 1e-9
            assert orac <= closed + 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSegmentSearch:
    """The Newton line search at the optimum, at the vertices and on infinite edges."""

    @pytest.mark.parametrize("tj", [1, 2, 3, 4, 9])
    def test_interval_optimum_point_is_p(self, tj):
        """Below the threshold the minimizer is q = p itself (value 0): the last
        Newton step puts the point within 4 ulps of p."""
        j = Spin(tj)
        ps = np.random.default_rng(700 + tj).random(200) * separability_threshold(j)
        q = _interval_search(j, ps, _INTERVAL_TOL)[0]
        assert (np.abs(q - ps) <= 4 * np.spacing(ps)).all()
        assert minimize_kl_over_interval(Spin(1), 0.3).optimum_point == (0.3,)

    @pytest.mark.parametrize("tj", [1, 2, 5])
    def test_interval_ends_are_exact(self, tj):
        j = Spin(tj)
        pc = separability_threshold(j)
        q, vals, steps, widths = _interval_search(j, np.array([0.0, pc, 1.0]), _INTERVAL_TOL)
        assert q.tolist() == [0.0, pc, pc]
        assert vals.tolist() == [0.0, 0.0, float(np.log(1.0 / pc))]  # KL(1 || pc)
        assert (steps < _MAX_STEPS).all() and (widths <= _INTERVAL_TOL).all()

    @pytest.mark.parametrize("N", [3, 4, 5, 101])
    def test_polygon_vertices_are_exact(self, N):
        """The simplex vertices A, B, C and the polygon's own vertices: every
        optimum is a polygon vertex (C at N = 3 lies over the flat edge A'E,
        y = 1/2) and its value is the KL to that vertex, with no NaN."""
        poly = _polygon(N)[0]
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)] + [tuple(v) for v in poly.tolist()]
        xs, ys = (np.array(c) for c in zip(*pts))
        bx, by, vals, steps, widths = _polygon_search(N, xs, ys, _POLYGON_TOL)
        assert not np.isnan(np.concatenate((bx, by, vals, widths))).any()
        assert (steps < _MAX_STEPS).all() and (widths <= _POLYGON_TOL).all()
        corners = [tuple(v) for v in poly.tolist()]
        for (x, y), ox, oy, val in zip(pts, bx, by, vals):
            if (x, y) in corners:
                assert (ox, oy, val) == (x, y, 0.0)
                continue
            assert (ox, oy) in corners or (N == 3 and oy == 0.5)
            p, q = np.array((x, y, 1.0 - x - y)), np.array((ox, oy, 1.0 - ox - oy))
            assert val == pytest.approx(sum(pk * math.log(pk / qk) for pk, qk in zip(p, q)
                                            if pk > 0.0), abs=1e-15)

    def test_infinite_edge_loses(self):
        """Edge A-D lies on y = 0: a state with y > 0 has KL +inf along all of
        it, which takes no step and loses to the finite edges."""
        poly = _polygon(5)[0]
        (ax, ay), (dx, dy) = poly[0], poly[1]
        q, vals, steps, widths = _segment_search(
            np.array([[0.9], [0.05], [0.05]]), np.array([[ax], [ay], [1.0 - ax - ay]]),
            np.array([[dx], [dy], [1.0 - dx - dy]]), _POLYGON_TOL)
        assert vals.tolist() == [math.inf] and steps.tolist() == [0]
        assert q[:, 0].tolist() == [ax, ay, 1.0 - ax - ay]
        report = minimize_kl_over_polygon(5, NormalizedCoords(0.9, 0.05))
        assert report.optimum_value == pytest.approx(
            ree_3xn_odd(5, NormalizedCoords(0.9, 0.05)).value, abs=1e-15)

    @pytest.mark.parametrize("N", [3, 4, 101, 10**8 + 1])
    def test_batch_equals_scalar_calls_at_the_boundary(self, N):
        """Vertices, points on edges and states with a coordinate of 0 or of
        5e-324 freeze at different steps; each keeps its scalar call's bits."""
        poly = _polygon(N)[0]
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.9, 5e-324), (5e-324, 0.99),
               (0.6, 0.0), (0.0, 0.7), (0.3, 0.7)] + boundary_sweep(N)[::3]
        for i in range(len(poly)):
            (ox, oy), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
            pts += [(ox, oy), (ox + 0.5 * (qx - ox), oy + 0.5 * (qy - oy))]
        xs, ys = (np.array(c) for c in zip(*pts))
        batch = _polygon_search(N, xs, ys, _POLYGON_TOL)
        for k, (x, y) in enumerate(pts):
            report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
            assert (report.optimum_value, *report.optimum_point, report.iterations,
                    report.final_box_size) == tuple(c[k] for c in (
                        batch[2], batch[0], batch[1], batch[3], batch[4]))
            assert report.converged

    def test_interval_batch_equals_scalar_calls_at_the_boundary(self):
        j = Spin(3)
        ps = np.array([0.0, 5e-324, 1e-300, separability_threshold(j), 0.9, 1.0])
        q, vals, steps, widths = _interval_search(j, ps, _INTERVAL_TOL)
        for k, p in enumerate(ps):
            report = minimize_kl_over_interval(j, float(p))
            assert (report.optimum_value, *report.optimum_point, report.iterations,
                    report.final_box_size) == (vals[k], q[k], steps[k], widths[k])


    @pytest.mark.parametrize("tj", [1, 2, 5, 40])
    def test_interval_optimum_at_a_barrier_end(self, tj):
        """For p near 0 the optimum q = p lies within the float resolution of the
        q = 0 end, where the slope is infinite: the search starts 2^-53 inside,
        which certifies in a few steps (bisection toward the end took 38, and 72
        at p = 5e-324)."""
        ps = np.array([5e-324, 1e-323, 1e-320, 1e-310, 1e-300])
        _, vals, steps, widths = _interval_search(Spin(tj), ps, _INTERVAL_TOL)
        closed = np.array([ree_2xn(Spin(tj), p).value for p in ps.tolist()])
        assert steps.max() <= 12 and (widths <= _INTERVAL_TOL).all()
        assert np.abs(vals - closed).max() <= 1e-15

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 101])
    def test_polygon_optimum_at_a_barrier_end(self, N):
        """(5e-324, 0.99) and its neighbours have their optimum within about
        1e-300 of E, the s = 1 end of edge A'E, where a q is 0: the search starts
        at the nearest float inside (bisection toward E took up to 38 steps)."""
        pts = [(5e-324, 0.99), (1e-323, 0.99), (1e-310, 0.99), (1e-300, 0.99)]
        xs, ys = (np.array(c) for c in zip(*pts))
        _, _, vals, steps, widths = _polygon_search(N, xs, ys, _POLYGON_TOL)
        closed = np.array([ree_dispatch(Spin(2), Spin(N - 1), normalized_to_raw(
            N, NormalizedCoords(x, y)).alphas()).value for x, y in pts])
        assert steps.max() <= 12 and (widths <= _POLYGON_TOL).all()
        assert np.abs(vals - closed).max() <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRootStart:
    """Along an edge F = f' prod q is a quadratic in s: a search that starts at its
    root certifies at step 2 (a start at the secant root took 2 to 26)."""

    @pytest.mark.parametrize("N", [*range(3, 12), 101, 10**4 + 1, 10**8 + 1])
    def test_every_3xn_search_takes_two_steps(self, N):
        """No exception on the sweep: every searched state (steps > 0) takes 2, and
        its value is within 1e-15 of the closed form (3.6e-16 seen)."""
        pts = boundary_sweep(N)
        xs, ys = (np.array(c) for c in zip(*pts))
        _, _, vals, steps, widths = _polygon_search(N, xs, ys, _POLYGON_TOL)
        assert set(steps.tolist()) == {0, 2} and (widths <= _POLYGON_TOL).all()
        closed = [_value_3xn(N, *xy(NormalizedCoords(x, y))) for x, y in pts]
        assert np.abs(vals - closed).max() <= 1e-15

    @pytest.mark.parametrize("N,x,y,gap", [
        (10**8 + 1, 1e-17, 0.99999999, 1e-15),  # 8 steps and a gap of 1.5e-10 from the secant
        (10**4 + 1, 1e-17, 0.9999999999, 1e-15),  # a gap of 1.0e-13 from the secant
        (10**4 + 1, 0.99, 5e-324, 1e-15),  # 13 steps from the secant
        (10**8 + 1, 0.99999999999999, 5e-324, 1e-15),  # 26 steps from the secant
        (101, 5e-324, 0.99, 1e-16),  # 5 steps from the secant, a gap of 5.9e-17
    ])
    def test_states_at_a_q_zero_end(self, N, x, y, gap):
        """An outcome with a tiny p has q = 0 at s = 0 on the edge searched, so -F(0) =
        g0 is tiny next to g1 > 0, or 0 where p a underflows: 2 g0 / (sqrt(D) - g1)
        would cancel, or give the root s = 0 of prod q, where (g1 + sqrt(D)) / (-2 g2)
        does neither."""
        report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
        assert report.iterations == 2 and report.converged
        assert abs(report.optimum_value - _value_3xn(N, *xy(NormalizedCoords(x, y)))) <= gap


class TestPPTEigenvalue:
    def test_maximally_mixed_positive(self):
        assert ppt_min_eigenvalue(maximally_mixed(Spin(1), Spin(2))) > 0.0

    def test_werner_threshold(self):
        # the 2x2 family at p = 1/2 sits exactly on the PPT boundary
        assert abs(ppt_min_eigenvalue(state_2xn(Spin(1), 0.5))) < 1e-9

    @pytest.mark.parametrize("N", [3, 5, 6, 9])
    def test_vertex_b_entangled(self, N):
        _, B, _ = simplex_vertices(N)
        state = make_ri_state(Spin(2), Spin(N - 1), B)
        assert ppt_min_eigenvalue(state) < -1e-6


class TestVerifyClosedForm:
    def test_campaigns_pass(self):
        for family, param in [("2xN", 1.5), ("3x3", 3), ("3xN-odd", 5),
                              ("3xN-even", 4)]:
            summary = verify_closed_form(family, param, samples=50, seed=1,
                                         tol=1e-6)
            assert summary.passed, (family, summary.max_abs_diff)

    def test_2xn_worst_input_is_argmax_over_seeded_stream(self):
        j, seed, samples = Spin(2), 11, 60
        ps = np.random.default_rng(seed).random(samples)
        diffs = [abs(ree_2xn(j, float(p)).value
                     - minimize_kl_over_interval(j, float(p)).optimum_value) for p in ps]
        summary = verify_closed_form("2xN", 1.0, samples=samples, seed=seed, tol=1e-6)
        assert summary.worst_input == (ps[int(np.argmax(diffs))],)
        assert summary.max_abs_diff == max(diffs)

    def test_3xn_worst_input_is_argmax_over_seeded_stream(self):
        N, seed, samples = 5, 12, 30
        xs, ys = simplex_points(samples, seed)
        diffs = [abs(ree_3xn_odd(N, NormalizedCoords(x, y)).value
                     - minimize_kl_over_polygon(N, NormalizedCoords(x, y)).optimum_value)
                 for x, y in zip(xs, ys)]
        summary = verify_closed_form("3xN-odd", N, samples=samples, seed=seed, tol=1e-6)
        k = int(np.argmax(diffs))
        assert summary.worst_input == (xs[k], ys[k])
        assert summary.max_abs_diff == max(diffs)

    def test_no_samples(self):
        for family, param in CAMPAIGNS:
            summary = verify_closed_form(family, param, samples=0, seed=0, tol=1e-6)
            assert summary.passed and summary.worst_input == ()
            assert summary.max_abs_diff == 0.0  # an absolute difference is never negative

    @pytest.mark.parametrize("family,param", [("2xN", 1.0), ("3x3", 3)])
    def test_negative_samples_refused(self, family, param):
        with pytest.raises(ValueError, match=r"^samples must be >= 0, got -1$"):
            verify_closed_form(family, param, samples=-1, seed=0, tol=1e-6)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_invalid_tolerance_refused(self, tol):
        for family, param in (("2xN", 1.0), ("3x3", 3)):
            for samples in (0, 3):
                with pytest.raises(ValueError, match=f"^tol must be >= 0, got {tol}$"):
                    verify_closed_form(family, param, samples=samples, seed=0, tol=tol)

    def test_deterministic(self):
        a = verify_closed_form("3x3", 3, samples=25, seed=42, tol=1e-6)
        b = verify_closed_form("3x3", 3, samples=25, seed=42, tol=1e-6)
        assert a == b  # bit-identical summaries for identical seeds

    def test_zero_tolerance_fails(self, monkeypatch):
        exact = ri_entropy.oracle._value_3xn
        monkeypatch.setattr(ri_entropy.oracle, "_value_3xn", lambda N, x, y: exact(N, x, y) + 1e-3)
        summary = verify_closed_form("3x3", 3, samples=20, seed=2, tol=0.0)
        assert not summary.passed
        assert summary.max_abs_diff == pytest.approx(1e-3, abs=1e-12)
        assert summary.worst_input in zip(*simplex_points(20, seed=2))  # reported for triage

    def test_zero_tolerance_fails_2xn(self, monkeypatch):
        exact = ri_entropy.oracle._value_2xn
        monkeypatch.setattr(ri_entropy.oracle, "_value_2xn", lambda tj, p: exact(tj, p) + 1e-3)
        summary = verify_closed_form("2xN", 1.0, samples=20, seed=2, tol=0.0)
        assert not summary.passed
        assert summary.max_abs_diff == pytest.approx(1e-3, abs=1e-12)
        assert summary.worst_input[0] in np.random.default_rng(2).random(20)

    def test_campaigns_cover_every_family(self):
        assert CAMPAIGNS == (("2xN", 0.5), ("2xN", 1.0), ("2xN", 1.5), ("2xN", 2.0),
                             ("3x3", 3), ("3xN-odd", 5), ("3xN-odd", 7),
                             ("3xN-even", 4), ("3xN-even", 6))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            verify_closed_form("4xN", 4, samples=5, seed=0, tol=1e-6)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            verify_closed_form("3xN-odd", 6, samples=5, seed=0, tol=1e-6)
        with pytest.raises(ValueError):
            verify_closed_form("3xN-even", 7, samples=5, seed=0, tol=1e-6)

    @pytest.mark.parametrize("family,param,message", [
        ("3x3", 5, "family 3x3 fixes N = 3"),
        ("3xN-odd", 4, "family 3xN-odd needs odd N >= 5"),
        ("3xN-even", 5, "family 3xN-even needs even N >= 4"),
        ("4xN", 4, "unknown family '4xN'"),
        ("2xN", math.inf, "cannot parse spin inf"),
        ("2xN", -math.inf, "cannot parse spin -inf"),
    ])
    def test_refusal_messages(self, family, param, message):
        with pytest.raises(ValueError) as info:
            verify_closed_form(family, param, samples=5, seed=0, tol=1e-6)
        assert str(info.value) == message

    def test_numpy_integer_n_matches_int_n(self):
        for family, N in (("3xN-odd", 7), ("3xN-even", 6)):
            by_int = verify_closed_form(family, N, samples=10, seed=3, tol=1e-6)
            by_numpy = verify_closed_form(family, np.int64(N), samples=10, seed=3, tol=1e-6)
            assert repr(by_numpy) == repr(by_int)


class TestIndependentRoute:
    """The oracle optimum is a dense relative entropy to a PPT state.

    The value is recomputed without the discrete KL: from the dense
    matrices of rho and of the oracle's point sigma*, whose feasibility is
    checked by the smallest eigenvalue of its partial time-reversal.
    """

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_3xn(self, N):
        xs, ys = simplex_points(24, seed=300 + N)
        for x, y in zip(xs, ys):
            report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
            rho = normalized_to_raw(N, NormalizedCoords(x, y))
            sigma = normalized_to_raw(N, NormalizedCoords(*report.optimum_point))
            dense = quantum_relative_entropy(to_density(rho), to_density(sigma))
            assert abs(report.optimum_value - dense) <= 1e-9
            assert ppt_min_eigenvalue(sigma) >= -1e-10

    @pytest.mark.parametrize("tj", [1, 2, 3, 4])
    def test_2xn(self, tj):
        j = Spin(tj)
        for p in np.random.default_rng(400 + tj).random(24):
            report = minimize_kl_over_interval(j, float(p))
            sigma = state_2xn(j, report.optimum_point[0])
            dense = quantum_relative_entropy(to_density(state_2xn(j, float(p))),
                                             to_density(sigma))
            assert abs(report.optimum_value - dense) <= 1e-9
            assert ppt_min_eigenvalue(sigma) >= -1e-10


# SHA-256 of `oracle_fingerprint()` with numpy's AVX-512 dispatch off: any change
# to a bit of the oracle's searches or campaign summaries changes it
ORACLE_FINGERPRINT = "7e38320e685426d8f730aebd73cce85161c6d538633f402a6e5596167e380d79"
# SHA-256 of `interval_fingerprint()` likewise: the 2(x)N searches alone, unchanged
# since the 3(x)N searches start at the exact root of a quadratic
INTERVAL_FINGERPRINT = "ec62c95f8c01d6693526730b2770389027ec3e0c83c1c2065ce08d65eb0188b9"


def sha256_of(outputs) -> str:
    """SHA-256 over float.hex of every number of each output, with a ';' after each."""
    digest = hashlib.sha256()
    for out in outputs:
        for v in np.ravel(np.asarray(out, dtype=float)):
            digest.update(float(v).hex().encode() + b",")
        digest.update(b";")
    return digest.hexdigest()


def oracle_fingerprint() -> str:
    """SHA-256 over float.hex of the values, points, steps and widths of a
    fixed set of interval and polygon searches, and of the worst gap and
    worst input of every campaign at two seeds."""
    def outputs():
        for tj in (1, 2, 3, 4):
            j = Spin(tj)
            ps = np.concatenate([np.random.default_rng(500 + tj).random(60),
                                 [0.0, 1.0, separability_threshold(j)]])
            yield from _interval_search(j, ps, _INTERVAL_TOL)
        for N in (3, 4, 5, 6, 7):
            poly = _polygon(N)[0]
            xs, ys = simplex_points(60, seed=600 + N)
            pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]  # the simplex vertices A, B, C
            for i in range(len(poly)):  # the polygon's vertices and points on its edges
                (ox, oy), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
                pts += [(ox + f * (qx - ox), oy + f * (qy - oy)) for f in (0.0, 0.25, 0.5, 0.9)]
            xs = np.concatenate([xs, [p[0] for p in pts]])
            ys = np.concatenate([ys, [p[1] for p in pts]])
            yield from _polygon_search(N, xs, ys, _POLYGON_TOL)
        for seed in (8, 21):
            for family, param in CAMPAIGNS:
                summary = verify_closed_form(family, param, samples=20, seed=seed, tol=1e-6)
                yield from (summary.max_abs_diff, summary.worst_input)
    return sha256_of(outputs())


def interval_fingerprint() -> str:
    """SHA-256 over float.hex of the points, values, steps and widths of 2(x)N
    interval searches: 2,000 seeded p per j, the ends, the threshold, its float
    neighbours and p down to 5e-324."""
    def outputs():
        for tj in (1, 2, 3, 4, 5, 9, 40, 99):
            pc = separability_threshold(Spin(tj))
            ps = np.concatenate([np.random.default_rng(800 + tj).random(2000), [
                0.0, 5e-324, 1e-323, 1e-310, 1e-300, 1e-17, pc, np.nextafter(pc, 0.0),
                np.nextafter(pc, 1.0), 1.0 - 2.0 ** -53, 1.0]])
            yield from _interval_search(Spin(tj), ps, _INTERVAL_TOL)
    return sha256_of(outputs())


class TestBitIdentity:
    """Computed with numpy's AVX-512 dispatch off (`simd_dispatch`), whose float64
    log differs from the other code paths in the last bit."""

    @staticmethod
    def fingerprint(name: str) -> str:
        done = run_avx512_off("-c", f"from test_oracle import {name}; print({name}())")
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_oracle_outputs_are_pinned(self):
        assert self.fingerprint("oracle_fingerprint") == ORACLE_FINGERPRINT

    def test_interval_outputs_are_pinned(self):
        assert self.fingerprint("interval_fingerprint") == INTERVAL_FINGERPRINT
