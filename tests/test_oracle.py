"""Tests for the independent numerical oracles."""

import hashlib
import math

import numpy as np
import pytest

import ri_entropy.oracle
from ri_entropy.angular import Spin
from ri_entropy.closed_form import ree_2xn, ree_3xn_odd, separability_threshold, state_2xn
from ri_entropy.geometry import ppt_polygon, simplex_vertices
from ri_entropy.oracle import (
    _INTERVAL_TOL,
    _MAX_STEPS,
    _POLYGON_TOL,
    CAMPAIGNS,
    _inside_mask,
    _interval_search,
    _normalized_polygon,
    _polygon_search,
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


def simplex_points(n: int, seed: int):
    """n seeded uniform barycentric points (x, y) by sorted uniform spacings."""
    u = np.sort(np.random.default_rng(seed).random((n, 2)), axis=1)
    return u[:, 0], u[:, 1] - u[:, 0]


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
        assert widths.max() <= tol and steps < _MAX_STEPS

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
            assert report.iterations == steps

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
        poly = _normalized_polygon(N, ppt_polygon(N))
        steps, widths = _polygon_search(poly, xs, ys, tol)[3:]
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
        poly = _normalized_polygon(N, ppt_polygon(N))
        bx, by, vals, steps, widths = _polygon_search(poly, xs, ys, 1e-9)
        assert (vals == 0.0).any() and (vals > 0.0).any()  # both branches taken
        for k, (x, y) in enumerate(zip(xs, ys)):
            report = minimize_kl_over_polygon(N, NormalizedCoords(x, y))
            assert report.optimum_value == vals[k]
            assert report.optimum_point == (bx[k], by[k])
            assert report.iterations == steps[k]
            assert report.final_box_size == widths[k]

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
        poly = _normalized_polygon(N, ppt_polygon(N))
        pts = []
        for i in (1, 2):  # the edges D-A' and A'-E, the two inside the simplex
            (ox, oy), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
            length = math.hypot(qx - ox, qy - oy)
            nx, ny = (qy - oy) / length, -(qx - ox) / length  # outward, as poly is counterclockwise
            for f in np.linspace(0.01, 0.99, 50):
                for d in (1e-13, 1e-12, 1e-11):
                    pts.append((ox + f * (qx - ox) + d * nx, oy + f * (qy - oy) + d * ny))
        xs, ys = (np.array(c) for c in zip(*pts))
        assert not _inside_mask(poly, xs, ys).any()
        orac = _polygon_search(poly, xs, ys, _POLYGON_TOL)[2]
        closed = [ree_3xn_odd(N, NormalizedCoords(x, y)).value for x, y in pts]
        assert np.abs(orac - closed).max() <= 1e-15

    @pytest.mark.parametrize("N", [3, 5, 4])
    def test_one_sided_slack_vs_closed_form(self, N):
        """The oracle never undercuts the closed form by more than 1e-9 and
        never exceeds it by more than 1e-6."""
        from tests.test_closed_form import ree_3xn, simplex_samples
        for coords in simplex_samples(40, seed=900 + N):
            closed = ree_3xn(N, coords).value
            orac = minimize_kl_over_polygon(N, coords).optimum_value
            assert orac >= closed - 1e-9
            assert orac <= closed + 1e-6


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
        monkeypatch.setattr(ri_entropy.oracle, "_value_3xn", lambda N, c: exact(N, c) + 1e-3)
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


# SHA-256 of `oracle_fingerprint()`: any change to a bit of the oracle's
# searches or campaign summaries changes it
ORACLE_FINGERPRINT = "0ea05a6f04c156d396b361f6899d1005b0e31ad4f6895178919849209d2fd548"


def oracle_fingerprint() -> str:
    """SHA-256 over float.hex of the values, points, steps and widths of a
    fixed set of interval and polygon searches, and of the worst gap and
    worst input of every campaign at two seeds."""
    digest = hashlib.sha256()

    def put(*outputs):
        for out in outputs:
            for v in np.ravel(np.asarray(out, dtype=float)):
                digest.update(float(v).hex().encode() + b",")
            digest.update(b";")

    for tj in (1, 2, 3, 4):
        j = Spin(tj)
        ps = np.concatenate([np.random.default_rng(500 + tj).random(60),
                             [0.0, 1.0, separability_threshold(j)]])
        put(*_interval_search(j, ps, _INTERVAL_TOL))
    for N in (3, 4, 5, 6, 7):
        poly = _normalized_polygon(N, ppt_polygon(N))
        xs, ys = simplex_points(60, seed=600 + N)
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]  # the simplex vertices A, B, C
        for i in range(len(poly)):  # the polygon's vertices and points on its edges
            (ox, oy), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
            pts += [(ox + f * (qx - ox), oy + f * (qy - oy)) for f in (0.0, 0.25, 0.5, 0.9)]
        xs = np.concatenate([xs, [p[0] for p in pts]])
        ys = np.concatenate([ys, [p[1] for p in pts]])
        put(*_polygon_search(poly, xs, ys, _POLYGON_TOL))
    for seed in (8, 21):
        for family, param in CAMPAIGNS:
            summary = verify_closed_form(family, param, samples=20, seed=seed, tol=1e-6)
            put(summary.max_abs_diff, summary.worst_input)
    return digest.hexdigest()


class TestBitIdentity:
    def test_oracle_outputs_are_pinned(self):
        assert oracle_fingerprint() == ORACLE_FINGERPRINT
