"""Tests for the closed-form E_r / E_Gamma expressions."""

import dataclasses
import hashlib
import math
import pickle
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_entropy import states
from ri_entropy.angular import Spin
from ri_entropy.closed_form import (
    Region,
    REEResult,
    RootInfo,
    UnsupportedFamilyError,
    _ree_3xn,
    _ree_result,
    _root_info,
    _value_2xn,
    _value_3xn,
    _value_in_region,
    e_gamma_3xn_even,
    p_of_state,
    ree_2xn,
    ree_3x3,
    ree_3xn_odd,
    ree_dispatch,
    separability_threshold,
    state_2xn,
)
from ri_entropy.geometry import _per_n, classify_region, normalized_chart, region_polygons
from ri_entropy.oracle import minimize_kl_over_interval, minimize_kl_over_polygon
from ri_entropy.states import (
    AlphaVector,
    NormalizedCoords,
    RIState,
    _alpha_vector_3xn,
    _discrete_kl,
    _prefactors,
    kl_alpha,
    make_ri_state,
    normalized_to_raw,
    raw_to_normalized,
)


def ree_3xn(N: int, coords: NormalizedCoords):
    if N == 3:
        return ree_3x3(coords)
    if N % 2:
        return ree_3xn_odd(N, coords)
    return e_gamma_3xn_even(N, coords)


def xy(coords: NormalizedCoords):
    """The floats of a point, as the private 3(x)N cores take them."""
    return coords.ahat_lo, coords.ahat_mid


def simplex_samples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        u = np.sort(rng.random(2))
        out.append(NormalizedCoords(u[0], u[1] - u[0]))
    return out


class Test2xN:
    def test_below_threshold_zero(self):
        assert ree_2xn(Spin(1), 0.3).value == 0.0
        assert ree_2xn(Spin(1), 0.3).region is Region.SEPARABLE

    def test_maximal_value_half(self):
        assert ree_2xn(Spin(1), 1.0).value == pytest.approx(math.log(2), abs=1e-15)

    def test_maximal_value_one(self):
        assert ree_2xn(Spin(2), 1.0).value == pytest.approx(math.log(1.5), abs=1e-15)

    def test_threshold_continuity(self):
        for tj in (1, 2, 3, 4):
            j = Spin(tj)
            pc = separability_threshold(j)
            below = ree_2xn(j, pc).value
            above = ree_2xn(j, pc + 1e-12).value
            assert below == 0.0 and above < 1e-10

    def test_minimizer_is_threshold_state(self):
        res = ree_2xn(Spin(1), 0.9)
        p_star = p_of_state(RIState(res.minimizer))
        assert p_star == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.85, 0.9, 0.95, 1.0])
    def test_monotone_nonincreasing_in_j(self, p):
        values = [ree_2xn(Spin(tj), p).value for tj in (1, 2, 3, 4)]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))

    def test_rejects_bad_p(self):
        for p in (1.2, -0.1, 1.1, math.nan):
            for build in (ree_2xn, state_2xn):
                with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p}$"):
                    build(Spin(1), p)

    def test_value_is_a_python_float_of_the_float64_p(self):
        # a numpy float32 p is taken as the float64 of the same number
        p = np.float32(0.9)
        res = ree_2xn(Spin(1), p)
        assert type(res.value) is float
        assert res.value == ree_2xn(Spin(1), float(p)).value == 0.36806415478258403

    def test_spin_zero_second_factor_rejected(self):
        # spin 1/2 (x) spin 0 has one coupled block, so there is no 2(x)N state
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match=r"^expected j2 >= j1$"):
                state_2xn(Spin(0), p)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0), st.sampled_from([1, 2, 3, 4]))
    def test_value_equals_kl_to_minimizer(self, p, tj):
        j = Spin(tj)
        res = ree_2xn(j, p)
        kl = kl_alpha(state_2xn(j, p), RIState(res.minimizer))
        assert res.value == pytest.approx(kl, abs=1e-12)


class TestValueCore2xN:
    """The value alone, as campaigns and curves take it, is ree_2xn's value bit for bit."""

    @pytest.mark.parametrize("tj", [1, 2, 3, 4, 9, 99])
    def test_equals_ree_2xn_value(self, tj):
        j = Spin(tj)
        pc = separability_threshold(j)
        ps = np.random.default_rng(900 + tj).random(200).tolist()
        ps += [0.0, 1.0, pc, math.nextafter(pc, -1.0), math.nextafter(pc, 1.0)]
        for p in ps:
            assert _value_2xn(tj, p).hex() == ree_2xn(j, p).value.hex()


class TestValueCore3xN:
    """The value alone, as campaigns take it, is _ree_3xn's value bit for bit."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 101, 10**8 + 1])
    def test_equals_ree_3xn_value(self, N):
        u = np.sort(np.random.default_rng(N).random((200, 2)), axis=1)
        points = [NormalizedCoords(x, y - x) for x, y in u.tolist()]
        for coords in points + _centroids(N) + _edge_points(N):
            assert _value_3xn(N, *xy(coords)).hex() == _ree_3xn(N, *xy(coords)).value.hex()


class Test3x3:
    def test_vertex_c(self):
        res = ree_3x3(NormalizedCoords(0.0, 1.0))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert res.region is Region.TRI_APRIME_CE

    def test_vertex_b(self):
        res = ree_3x3(NormalizedCoords(1.0, 0.0))
        assert res.value == pytest.approx(math.log(3), abs=1e-12)
        assert res.region is Region.TRI_APRIME_BD

    def test_a_prime_is_separable(self):
        res = ree_3x3(NormalizedCoords(1 / 3, 0.5))
        assert res.value == 0.0 and res.region is Region.SEPARABLE

    def test_triangle_a_bc_uses_fixed_minimizer(self):
        res = ree_3x3(NormalizedCoords(0.45, 0.45))
        assert res.region is Region.TRI_APRIME_BC
        coords = raw_to_normalized(RIState(res.minimizer))
        assert coords.ahat_lo == pytest.approx(1 / 3, abs=1e-12)
        assert coords.ahat_mid == pytest.approx(0.5, abs=1e-12)


class Test3xNOdd:
    def test_vertex_b_n5(self):
        res = ree_3xn_odd(5, NormalizedCoords(1.0, 0.0))
        assert res.value == pytest.approx(math.log(5 / 3), abs=1e-12)
        assert res.region is Region.POLY_APRIME_HBF

    def test_a_prime_n5(self):
        res = ree_3xn_odd(5, NormalizedCoords(0.6, 1 / 3))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_separable_interior(self):
        coords = NormalizedCoords(0.1, 0.1)
        res = ree_3xn_odd(5, coords)
        assert res.value == 0.0 and res.region is Region.SEPARABLE
        back = raw_to_normalized(RIState(res.minimizer))
        assert back.ahat_lo == pytest.approx(0.1, abs=1e-12)

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            ree_3xn_odd(6, NormalizedCoords(0.5, 0.2))
        with pytest.raises(ValueError):
            ree_3xn_odd(3, NormalizedCoords(0.5, 0.2))

    def test_flanking_minimizers_on_segments(self):
        """Roots put the region A'FCE minimizer on EA' and A'DH on DA'."""
        for N in (5, 7, 9):
            ch = normalized_chart(N)
            res = ree_3xn(N, NormalizedCoords(0.05, 0.9))
            assert res.region is Region.POLY_APRIME_FCE and res.aux.branch == "a"
            sig = raw_to_normalized(RIState(res.minimizer))
            # on segment EA': interpolate and compare
            s = (sig.ahat_lo - ch.e.x) / (ch.a_prime.x - ch.e.x)
            assert -1e-9 <= s <= 1 + 1e-9
            assert sig.ahat_mid == pytest.approx(
                (1 - s) * ch.e.y + s * ch.a_prime.y, abs=1e-9)

            res = ree_3xn(N, NormalizedCoords(0.62, 0.004))
            assert res.region is Region.TRI_APRIME_DH and res.aux.branch == "b"
            sig = raw_to_normalized(RIState(res.minimizer))
            s = (sig.ahat_lo - ch.d.x) / (ch.a_prime.x - ch.d.x)
            assert -1e-9 <= s <= 1 + 1e-9
            assert sig.ahat_mid == pytest.approx(
                (1 - s) * ch.d.y + s * ch.a_prime.y, abs=1e-9)

    def test_stated_root_branch_is_used(self):
        """The root in `aux` maps to a segment parameter s in [0, 1] at every N."""
        for N in (5, 7, 101, 10**8 + 1):
            polys = dict(region_polygons(N))
            for region, branch in ((Region.POLY_APRIME_FCE, "a"), (Region.TRI_APRIME_DH, "b")):
                poly = polys[region]
                rng = np.random.default_rng(N % 1000)
                checked = 0
                for w in rng.dirichlet(np.ones(len(poly)), 150):
                    coords = NormalizedCoords(sum(wt * v.x for wt, v in zip(w, poly)),
                                              sum(wt * v.y for wt, v in zip(w, poly)))
                    res = ree_3xn(N, coords)
                    if res.region is not region:  # rounded off a needle-thin region
                        continue
                    root = res.aux.root
                    assert res.aux.branch == branch
                    if branch == "a":
                        s = (N - 1) * root / (N - 3)
                    else:
                        s = ((2 * N * (N * N - 5) * root - (N + 3) * (N - 1) ** 2)
                             / ((N + 3) * (N - 1) * (N - 3)))
                    assert -1e-9 <= s <= 1 + 1e-9
                    checked += 1
                assert checked >= 100

    def test_dg_segment_shares_minimizer_d(self):
        """States on segment DG minimize at D, matching the A'DGH reading."""
        for N in (5, 7):
            ch = normalized_chart(N)
            d_state = normalized_to_raw(N, NormalizedCoords(ch.d.x, 0.0))
            for s in np.linspace(1e-6, 1.0 - 1e-6, 25):
                x = (1 - s) * ch.d.x + s * ch.g.x
                res = ree_3xn_odd(N, NormalizedCoords(x, 0.0))
                assert res.region is Region.TRI_APRIME_DH
                sig = raw_to_normalized(RIState(res.minimizer))
                assert sig.ahat_lo == pytest.approx(ch.d.x, abs=1e-9)
                assert sig.ahat_mid == pytest.approx(0.0, abs=1e-9)
                direct = kl_alpha(normalized_to_raw(N, NormalizedCoords(x, 0.0)), d_state)
                assert res.value == pytest.approx(direct, abs=1e-10)

    def test_bc_edge_matches_oracle_n5(self):
        """E_r along edge BC (the A'FCE stretch) agrees with the oracle,
        confirming the root-based formula against the worked 3(x)5 case."""
        x_f = 2 / 4  # barycentric x of F for N = 5 is (N-3)/(N-1) = 1/2
        for s in np.linspace(0.0, 1.0, 9):
            x = s * x_f
            coords = NormalizedCoords(x, 1.0 - x)  # on segment CB
            res = ree_3xn_odd(5, coords)
            assert res.region is Region.POLY_APRIME_FCE
            orac = minimize_kl_over_polygon(5, coords).optimum_value
            assert res.value == pytest.approx(orac, abs=1e-6)

    def test_ab_edge_matches_oracle_n5(self):
        """E_r along the alpha_j = 0 edge (the A'DH stretch) agrees with the
        oracle, confirming the b-root formula against the worked case."""
        ch = normalized_chart(5)
        for x in np.linspace(ch.d.x + 1e-6, 1.0, 9):
            coords = NormalizedCoords(x, 0.0)
            res = ree_3xn(5, coords)
            orac = minimize_kl_over_polygon(5, coords).optimum_value
            assert res.value == pytest.approx(orac, abs=1e-6)


class Test3xNEven:
    def test_vertex_b_n4(self):
        res = e_gamma_3xn_even(4, NormalizedCoords(1.0, 0.0))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert res.quantity == "E_Gamma"

    def test_vertex_c_n6_matches_oracle(self):
        coords = NormalizedCoords(0.0, 1.0)
        res = e_gamma_3xn_even(6, coords)
        orac = minimize_kl_over_polygon(6, coords).optimum_value
        assert res.value == pytest.approx(orac, abs=1e-6)

    def test_separable_zero(self):
        assert e_gamma_3xn_even(4, NormalizedCoords(0.1, 0.1)).value == 0.0

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            e_gamma_3xn_even(5, NormalizedCoords(0.5, 0.2))


class TestNearSimplexEdges:
    """Points up to NORM_TOL outside the simplex are valid input."""

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 101])
    def test_points_just_outside_each_edge(self, N):
        eps = 9e-11
        for t in (0.0, 0.3, 0.5, 0.9):
            # (point on an edge, outward offset of at most NORM_TOL)
            for (x, y), (dx, dy) in (((0.0, t), (-eps, 0.0)), ((t, 0.0), (0.0, -eps)),
                                     ((t, 1.0 - t), (eps / 2, eps / 2))):
                value = ree_3xn(N, NormalizedCoords(x + dx, y + dy)).value
                assert math.isfinite(value)
                assert value == pytest.approx(ree_3xn(N, NormalizedCoords(x, y)).value,
                                              abs=1e-8)


class TestInvariants:
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
    def test_value_zero_iff_separable(self, N):
        for coords in simplex_samples(80, seed=100 + N):
            res = ree_3xn(N, coords)
            if res.region is Region.SEPARABLE:
                assert res.value == 0.0
            else:
                assert res.value > 0.0

    @pytest.mark.parametrize("N", [3, 5, 7, 4, 6])
    def test_value_equals_kl_to_minimizer(self, N):
        for coords in simplex_samples(60, seed=200 + N):
            res = ree_3xn(N, coords)
            kl = kl_alpha(normalized_to_raw(N, coords), RIState(res.minimizer))
            assert res.value == pytest.approx(kl, abs=1e-10)

    @pytest.mark.parametrize("N", [3, 5, 7, 4, 6])
    def test_minimizer_in_ppt_polygon(self, N):
        _, polys = zip(*region_polygons(N))
        sep_poly = polys[0]
        for coords in simplex_samples(60, seed=300 + N):
            res = ree_3xn(N, coords)
            sig = raw_to_normalized(RIState(res.minimizer))
            for o, q in zip(sep_poly, sep_poly[1:] + sep_poly[:1]):
                cross = ((q.x - o.x) * (sig.ahat_mid - o.y)
                         - (q.y - o.y) * (sig.ahat_lo - o.x))
                assert cross >= -1e-9

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_boundary_continuity(self, N):
        """Adjacent region formulas agree on their shared edges (<= 1e-8)."""
        ch = normalized_chart(N)
        if N == 3:
            edges = [
                (ch.e, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_CE),
                (ch.d, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_BD),
                (ch.a_prime, ch.c, Region.TRI_APRIME_CE, Region.TRI_APRIME_BC),
                (ch.a_prime, ch.b, Region.TRI_APRIME_BD, Region.TRI_APRIME_BC),
            ]
        else:
            edges = [
                (ch.e, ch.a_prime, Region.SEPARABLE, Region.POLY_APRIME_FCE),
                (ch.d, ch.a_prime, Region.SEPARABLE, Region.TRI_APRIME_DH),
                (ch.a_prime, ch.f, Region.POLY_APRIME_FCE, Region.POLY_APRIME_HBF),
                (ch.a_prime, ch.h, Region.POLY_APRIME_HBF, Region.TRI_APRIME_DH),
            ]
        for p0, p1, r_left, r_right in edges:
            worst = 0.0
            for s in np.linspace(0.0, 1.0, 100):
                coords = NormalizedCoords((1 - s) * p0.x + s * p1.x,
                                          (1 - s) * p0.y + s * p1.y)
                va = _value_in_region(_per_n(N), *xy(coords), r_left)[0]
                vb = _value_in_region(_per_n(N), *xy(coords), r_right)[0]
                worst = max(worst, abs(va - vb))
            assert worst <= 1e-8, (r_left, r_right, worst)

    @pytest.mark.parametrize("N", [3, 5, 4])
    def test_mixing_line_property(self, N):
        """Mixing an entangled state toward its minimizer keeps the same
        minimizer, so the value is the KL to it along the whole line."""
        entangled = [c for c in simplex_samples(200, seed=400 + N)
                     if ree_3xn(N, c).region is not Region.SEPARABLE][:10]
        for coords in entangled:
            res = ree_3xn(N, coords)
            sig = raw_to_normalized(RIState(res.minimizer))
            sigma_state = normalized_to_raw(N, sig)
            for t in np.linspace(0.1, 0.9, 9):
                mix = NormalizedCoords(
                    (1 - t) * coords.ahat_lo + t * sig.ahat_lo,
                    (1 - t) * coords.ahat_mid + t * sig.ahat_mid)
                expected = kl_alpha(normalized_to_raw(N, mix), sigma_state)
                assert ree_3xn(N, mix).value == pytest.approx(expected, abs=1e-8)

    def test_mixing_line_property_2xn(self):
        for tj, p in [(1, 0.9), (2, 0.95), (3, 1.0)]:
            j = Spin(tj)
            pc = separability_threshold(j)
            sigma = state_2xn(j, pc)
            for t in np.linspace(0.1, 0.9, 9):
                p_mix = (1 - t) * p + t * pc
                expected = kl_alpha(state_2xn(j, p_mix), sigma)
                assert ree_2xn(j, p_mix).value == pytest.approx(expected, abs=1e-8)

    def test_convexity(self):
        """Sampled mixtures never beat the convex combination bound."""
        checked = 0
        for N in (3, 5, 4):
            pts = simplex_samples(50, seed=500 + N)
            rng = np.random.default_rng(600 + N)
            for c1, c2 in zip(pts[::2], pts[1::2]):
                t = float(rng.random())
                mix = NormalizedCoords(
                    (1 - t) * c1.ahat_lo + t * c2.ahat_lo,
                    (1 - t) * c1.ahat_mid + t * c2.ahat_mid)
                bound = (1 - t) * ree_3xn(N, c1).value + t * ree_3xn(N, c2).value
                assert ree_3xn(N, mix).value <= bound + 1e-10
                checked += 1
        # plus mixtures within the 2xN family
        for tj in (1, 2, 3):
            rng = np.random.default_rng(700 + tj)
            for _ in range(45):
                p1, p2, t = rng.random(3)
                bound = ((1 - t) * ree_2xn(Spin(tj), p1).value
                         + t * ree_2xn(Spin(tj), p2).value)
                mixed = ree_2xn(Spin(tj), (1 - t) * p1 + t * p2).value
                assert mixed <= bound + 1e-10
                checked += 1
        assert checked >= 200

    def test_pure_state_entropy(self):
        """Vertex B of 3x3 is the pure J=0 state; E_r = ln 3 equals the
        entropy of its reduced state (a maximally mixed qutrit)."""
        from ri_entropy.angular import coupled_basis_vector
        v = coupled_basis_vector(Spin(2), Spin(2), Spin(0), 0)
        rho = np.outer(v, v).reshape(3, 3, 3, 3)
        reduced = np.einsum("ijkj->ik", rho)
        evs = np.linalg.eigvalsh(reduced)
        entropy = -sum(x * math.log(x) for x in evs if x > 1e-15)
        assert ree_3x3(NormalizedCoords(1.0, 0.0)).value == pytest.approx(
            entropy, abs=1e-12)


class TestDispatch:
    def test_2xn_route(self):
        state = state_2xn(Spin(3), 0.9)
        res = ree_dispatch(Spin(1), Spin(3), state.alphas())
        assert res.value == pytest.approx(ree_2xn(Spin(3), 0.9).value, abs=1e-12)

    def test_3x3_route(self):
        coords = NormalizedCoords(0.2, 0.7)
        state = normalized_to_raw(3, coords)
        res = ree_dispatch(Spin(2), Spin(2), state.alphas())
        assert res.value == pytest.approx(ree_3x3(coords).value, abs=1e-12)

    def test_even_route_labeled_e_gamma(self):
        coords = NormalizedCoords(0.9, 0.05)
        state = normalized_to_raw(4, coords)
        res = ree_dispatch(Spin(2), Spin(3), state.alphas())
        assert res.quantity == "E_Gamma"

    def test_unsupported_family(self):
        state = make_ri_state(Spin(3), Spin(3), (4.0, 0.0, 0.0, 0.0))
        with pytest.raises(UnsupportedFamilyError, match="force-oracle"):
            ree_dispatch(Spin(3), Spin(3), state.alphas())

    def test_swapped_spins_rejected(self):
        with pytest.raises(ValueError):
            ree_dispatch(Spin(2), Spin(1), (1.0, 1.0))

    @pytest.mark.parametrize("tj", [1, 2, 3])
    @pytest.mark.parametrize("eps", [5e-11, 9e-11])
    def test_2xn_total_just_above_one_is_accepted(self, tj, eps):
        """A weighted total up to NORM_TOL above 1 is kept as given, so w_0 alpha_0
        may exceed 1; p is taken as 1, and neither route refuses the state."""
        j = Spin(tj)
        alphas = ((1.0 + eps) / math.sqrt(tj / (2 * tj + 2)), 0.0)
        state = make_ri_state(Spin(1), j, alphas)
        assert not state.renormalized and p_of_state(state) == 1.0
        res = ree_dispatch(Spin(1), j, alphas)
        assert res.value == ree_2xn(j, 1.0).value == math.log((tj + 1) / tj)
        orac = minimize_kl_over_interval(j, p_of_state(state)).optimum_value
        assert res.value == pytest.approx(orac, abs=1e-9)


def _sum_in_order(terms) -> float:
    """Floats added left to right, rounding each sum: builtin sum() does so up
    to Python 3.11 and compensates its rounding from 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _golden_calls():
    """(fn, args) of a fixed seeded input set.

    Inputs come from `random.Random`, whose stream does not depend on the
    numpy or Python version, and from float arithmetic in a fixed order.
    """
    rnd = random.Random(20261018)
    calls = []

    def record(fn, *args):
        calls.append((fn, args))

    for tj in (1, 2, 3, 4, 7):
        j = Spin(tj)
        pc = separability_threshold(j)
        for p in (0.0, 1.0, pc, math.nextafter(pc, 0.0), math.nextafter(pc, 1.0),
                  *(rnd.random() for _ in range(20))):
            record(ree_2xn, j, p)
        w = (math.sqrt(tj / (2 * tj + 2)), math.sqrt((tj + 2) / (2 * tj + 2)))
        for _ in range(5):
            p = rnd.random()
            record(ree_dispatch, Spin(1), j, (p / w[0], (1.0 - p) / w[1]))
        p = rnd.random()
        record(ree_dispatch, Spin(1), j,
               ((p / w[0]) * (1 + 1e-9), ((1.0 - p) / w[1]) * (1 + 1e-9)))
        record(ree_dispatch, Spin(1), j, (-1e-13, 1.0 / w[1]))

    for N in (3, 4, 5, 6, 7, 101, 10001):
        points = []
        for _ in range(10):
            u = sorted((rnd.random(), rnd.random()))
            points.append((u[0], u[1] - u[0]))
        for _, poly in region_polygons(N):
            for _ in range(6):
                cuts = sorted(rnd.random() for _ in range(len(poly) - 1))
                weights = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
                points.append((_sum_in_order(wt * v.x for wt, v in zip(weights, poly)),
                               _sum_in_order(wt * v.y for wt, v in zip(weights, poly))))
        for x, y in points:
            record(ree_3xn, N, NormalizedCoords(x, y))
        pre = (math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2)))
        j2 = Spin(N - 1)
        for x, y in points[:12]:
            raw = tuple(c * p for c, p in zip((x, y, 1.0 - x - y), pre))
            record(ree_dispatch, Spin(2), j2, raw)
        x, y = points[0]
        record(ree_dispatch, Spin(2), j2, tuple(c * p * (1 + 1e-9)
                                                for c, p in zip((x, y, 1.0 - x - y), pre)))
        record(ree_dispatch, Spin(2), j2, (-1e-13, 0.5 * pre[1], 0.5 * pre[2]))
    return calls


def _golden_records():
    """repr((value, region, minimizer alphas, aux)) of each golden call.

    A refusal is recorded as its exception type and message.
    """
    records = []
    for fn, args in _golden_calls():
        try:
            res = fn(*args)
        except (ValueError, ArithmeticError) as exc:
            records.append(repr((type(exc).__name__, str(exc))))
        else:
            records.append(repr((res.value, str(res.region), res.minimizer.alphas, res.aux)))
    return records


# a change to these is a change of closed-form output and must be deliberate
GOLDEN_COUNT = 496
GOLDEN_SHA256 = "f12640e47b20445fce957cbd1e9fe4b77507f7951b11299fb55cacd1273ff362"


class TestGoldenValues:
    """Closed-form outputs pinned bit for bit: a refactor must leave them unchanged."""

    def test_outputs_are_bit_identical(self):
        records = _golden_records()
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert (len(records), digest) == (GOLDEN_COUNT, GOLDEN_SHA256)


# the largest N whose line coefficients, up to N^3, still convert to float:
# the closed forms classify it and raise OverflowError from the next N on
LAST_FLOAT_N = int("56438030941223620779397070698960837078274382831445852243110142757834"
                   "12180059929638814564872415160725735")
LARGE_NS = (10**6 + 1, 10**8 + 1, 10**8 + 2, 2**53 + 1, 10**12 + 1, 10**20 + 1,
            LAST_FLOAT_N, LAST_FLOAT_N + 1)


def _large_n_records():
    """repr of (value, region, quantity, 2 j2, minimizer alphas, aux) of the 3(x)N closed
    forms at large N, or of the refusal's type and message.

    N-polynomials round when converted to float only beyond N = 10^4+1, the
    largest N of GOLDEN_SHA256.  Per N: the vertex mean of each region polygon,
    four seeded points in each region and `_edge_points`, through the family
    function, then the first twelve points through `ree_dispatch`; each N
    below 2^63 again as a numpy integer.
    """
    rnd = random.Random(20261020)
    records = []

    def record(fn, *args):
        try:
            res = fn(*args)
        except (ValueError, ArithmeticError) as exc:
            records.append(repr((type(exc).__name__, str(exc))))
        else:
            records.append(repr((res.value, str(res.region), res.quantity,
                                 res.minimizer.j2.twice_j, res.minimizer.alphas, res.aux)))

    for N in LARGE_NS:
        points = []
        for _, poly in region_polygons(N):
            points.append(NormalizedCoords(_sum_in_order(v.x for v in poly) / len(poly),
                                           _sum_in_order(v.y for v in poly) / len(poly)))
            for _ in range(4):
                cuts = sorted(rnd.random() for _ in range(len(poly) - 1))
                ws = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
                points.append(NormalizedCoords(_sum_in_order(w * v.x for w, v in zip(ws, poly)),
                                               _sum_in_order(w * v.y for w, v in zip(ws, poly))))
        points += _edge_points(N)
        for n in (N, np.int64(N)) if N < 2**63 else (N,):
            for coords in points:
                record(ree_3xn, n, coords)
        for coords in points[:12]:
            record(ree_dispatch, Spin(2), Spin(N - 1), normalized_to_raw(N, coords).coeffs.alphas)
    return records


# as GOLDEN_SHA256: a change to these is a change of closed-form output and must be deliberate
LARGE_N_COUNT = 1401
LARGE_N_SHA256 = "5fd23e614543f39404b812197adb7f11f383189255add8ed01cdb0cd9bfecff9"


class TestLargeNGolden:
    """The 3(x)N closed forms at N where their float constants round, pinned bit for bit."""

    def test_outputs_are_bit_identical(self):
        records = _large_n_records()
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert (len(records), digest) == (LARGE_N_COUNT, LARGE_N_SHA256)

    def test_the_last_float_n_classifies_and_the_next_overflows(self):
        coords = NormalizedCoords(0.2, 0.3)
        assert ree_3xn_odd(LAST_FLOAT_N, coords).region is Region.SEPARABLE
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            e_gamma_3xn_even(LAST_FLOAT_N + 1, coords)
        assert normalized_chart(LAST_FLOAT_N + 1).a_prime == (1.0, 2 / (LAST_FLOAT_N + 2))


def _bits(alphas):
    assert all(type(a) is float for a in alphas)
    return tuple(a.hex() for a in alphas)


def _centroids(N):
    """The vertex mean of each region polygon."""
    return [NormalizedCoords(sum(v.x for v in poly) / len(poly), sum(v.y for v in poly) / len(poly))
            for _, poly in region_polygons(N)]


def _edge_points(N):
    """Chart landmarks and the ends and midpoint of each region edge, each also 1 ulp off."""
    ch = normalized_chart(N)
    points = {(v.x, v.y) for v in ch if v is not None}
    for _, poly in region_polygons(N):
        for a, b in zip(poly, poly[1:] + poly[:1]):
            for x, y in ((a.x, a.y), ((a.x + b.x) / 2, (a.y + b.y) / 2)):
                points.add((x, y))
                for toward in (-math.inf, math.inf):
                    points.add((math.nextafter(x, toward), y))
                    points.add((x, math.nextafter(y, toward)))
    # 1 ulp below 0 is within the simplex tolerance and is clamped
    return [NormalizedCoords(x, y) for x, y in sorted(points)]


VALID_BY_CONSTRUCTION_NS = (3, 4, 5, 6, 7, 101, 10**4 + 1, 10**8 + 1, 10**12 + 1)


class TestValidByConstruction:
    """normalized_to_raw and state_2xn build their vectors without a second validation."""

    def test_closed_forms_validate_only_outside_vectors(self, monkeypatch):
        from ri_entropy import closed_form

        runs = []
        validate = states._checked_alphas

        def counted(*args):
            runs.append(args)
            return validate(*args)

        # under each name a module calls it by
        monkeypatch.setattr(states, "_checked_alphas", counted)
        monkeypatch.setattr(closed_form, "_checked_alphas", counted)

        def runs_of(fn, *args):
            runs.clear()
            fn(*args)
            return len(runs)

        for N in (3, 4, 5, 6, 7, 10**8 + 1):
            for coords in _centroids(N):
                assert runs_of(ree_3xn, N, coords) == 0
                raw = normalized_to_raw(N, coords).alphas()
                assert runs_of(ree_dispatch, Spin(2), Spin(N - 1), raw) == 1
        for tj in (1, 2, 7):
            j = Spin(tj)
            for p in (0.2, 0.99):
                assert runs_of(ree_2xn, j, p) == 0
                assert runs_of(ree_dispatch, Spin(1), j, state_2xn(j, p).alphas()) == 1

    def test_warm_3xn_dispatch_builds_no_coords_below_a_sum_of_1(self, monkeypatch):
        # the 3(x)N cores take the two floats: a NormalizedCoords is built, by its
        # checks, only to divide out a sum above 1
        from ri_entropy import closed_form

        built, new, init = [], states._new, NormalizedCoords.__init__

        def counted_new(cls):
            built.append(cls.__name__)
            return new(cls)

        def counted_init(self, *args):
            built.append("NormalizedCoords.__init__")
            init(self, *args)

        cases = [(j2, alphas) for j1, j2, alphas, _ in _dispatch_inputs() if j1.twice_j == 2]
        for j2, alphas in cases:  # warm every cache
            ree_dispatch(Spin(2), j2, alphas)
        for module in (states, closed_form):
            monkeypatch.setattr(module, "_new", counted_new)
        monkeypatch.setattr(NormalizedCoords, "__init__", counted_init)
        NormalizedCoords(0.2, 0.3)
        assert built == ["NormalizedCoords.__init__"]  # the hook is live
        above_one = 0
        for j2, alphas in cases:
            built.clear()
            ree_dispatch(Spin(2), j2, alphas)
            pre = _prefactors(j2.twice_j + 1)
            above = alphas[0] / pre[0] + alphas[1] / pre[1] > 1.0
            assert [b for b in built if b.startswith("NormalizedCoords")] == (
                ["NormalizedCoords.__init__"] if above else []), (j2, alphas)
            above_one += above
        assert above_one > 0

    def test_3xn_builder_matches_make_ri_state(self):
        golden = {}
        for fn, args in _golden_calls():
            if fn is ree_3xn:
                golden.setdefault(args[0], []).append(args[1])
        for N in VALID_BY_CONSTRUCTION_NS:
            pre = (math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2)))
            points = _edge_points(N) + golden.get(N, [])
            # each point, and the minimizer the closed form builds for it
            minimizers = [
                NormalizedCoords(*_value_in_region(_per_n(N), *xy(c), classify_region(N, c))[1][:2])
                for c in points]
            for coords in points + minimizers:
                built = normalized_to_raw(N, coords)
                raw = tuple(p * c for p, c in zip(
                    pre, (coords.ahat_lo, coords.ahat_mid, coords.ahat_hi)))
                made = make_ri_state(Spin(2), Spin(N - 1), raw)
                assert not made.renormalized
                assert (built.j1, built.j2) == (made.j1, made.j2)
                assert _bits(built.coeffs.alphas) == _bits(made.coeffs.alphas)
                accepted = AlphaVector(Spin(2), Spin(N - 1), built.coeffs.alphas)
                assert _bits(accepted.alphas) == _bits(built.coeffs.alphas)

    def test_2xn_builder_matches_make_ri_state(self):
        rnd = random.Random(7)
        golden = {}
        for fn, args in _golden_calls():
            if fn is ree_2xn:
                golden.setdefault(args[0].twice_j, []).append(args[1])
        for tj in (1, 2, 3, 4, 7, 10**8):
            j = Spin(tj)
            pc = separability_threshold(j)
            w = (math.sqrt(tj / (2 * tj + 2)), math.sqrt((tj + 2) / (2 * tj + 2)))
            ps = [0.0, 1.0, pc, math.nextafter(pc, 0.0), math.nextafter(pc, 1.0),
                  np.float64(0.3), *(rnd.random() for _ in range(50)), *golden.get(tj, [])]
            for p in ps:
                built = state_2xn(j, p)
                made = make_ri_state(Spin(1), j, (p / w[0], (1.0 - p) / w[1]))
                assert not made.renormalized
                assert (built.j1, built.j2) == (made.j1, made.j2)
                assert _bits(built.coeffs.alphas) == _bits(made.coeffs.alphas)
                accepted = AlphaVector(Spin(1), j, built.coeffs.alphas)
                assert _bits(accepted.alphas) == _bits(built.coeffs.alphas)
                assert _bits(ree_2xn(j, p).minimizer.alphas) == _bits(
                    state_2xn(j, min(p, pc)).coeffs.alphas)


def _dispatch_inputs():
    """(j1, j2, alphas, reference) per point: each 2(x)N vertex and p near the
    threshold, each 3(x)N simplex vertex and `_edge_points`, as the builders make
    them and again times 1 + 5e-11, a weighted total that is kept as given; the
    reference is the family function on the point read off the vector test-side."""
    out = []
    for tj in (1, 2, 3, 7):
        j = Spin(tj)
        pc = separability_threshold(j)
        w0 = math.sqrt(tj / (2 * tj + 2))
        for p in (0.0, 1.0, pc, math.nextafter(pc, 1.0), 0.3, 0.97):
            for scale in (1.0, 1 + 5e-11):
                alphas = tuple(a * scale for a in state_2xn(j, p).coeffs.alphas)
                out.append((Spin(1), j, alphas, ree_2xn(j, min(w0 * alphas[0], 1.0))))
    for N in (3, 4, 5, 7, 101, 10**8 + 1):
        pre = (math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2)))
        vertices = [NormalizedCoords(x, y) for x, y in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
        for coords in vertices + _edge_points(N):
            for scale in (1.0, 1 + 5e-11):
                alphas = tuple(a * scale for a in normalized_to_raw(N, coords).coeffs.alphas)
                point = NormalizedCoords(alphas[0] / pre[0], alphas[1] / pre[1])
                out.append((Spin(2), Spin(N - 1), alphas, _ree_3xn(N, *xy(point))))
    return out


class TestDispatchRoute:
    """ree_dispatch checks a vector once and reads p or the barycentric point
    straight from the stored tuple: no state is built on the way."""

    def test_value_region_and_minimizer_bits_match_the_family_functions(self):
        clamped = above_one = 0
        for j1, j2, alphas, want in _dispatch_inputs():
            got = ree_dispatch(j1, j2, alphas)
            assert (got.value.hex(), got.region, got.quantity) == (
                want.value.hex(), want.region, want.quantity)
            assert (got.minimizer.j1, got.minimizer.j2) == (want.minimizer.j1, want.minimizer.j2)
            assert _bits(got.minimizer.alphas) == _bits(want.minimizer.alphas)
            assert repr(got.aux) == repr(want.aux)
            if j1.twice_j == 1:
                clamped += math.sqrt(j2.twice_j / (2 * j2.twice_j + 2)) * alphas[0] > 1.0
            else:
                pre = _prefactors(j2.twice_j + 1)
                above_one += alphas[0] / pre[0] + alphas[1] / pre[1] > 1.0
        # the p -> 1 clamp and the sum-above-1 branch are both taken
        assert clamped > 0 and above_one > 0

    def test_warm_dispatch_builds_the_minimizer_only(self, monkeypatch):
        from ri_entropy import closed_form

        built, states_made = [], []
        new, post_init, ri_state = states._new, AlphaVector.__post_init__, states._ri_state

        def counted_new(cls):
            built.append(cls.__name__)
            return new(cls)

        def counted_post_init(self):
            built.append("AlphaVector")
            post_init(self)

        def counted_ri_state(*args):
            states_made.append(args)
            return ri_state(*args)

        cases = [(j1, j2, alphas) for j1, j2, alphas, _ in _dispatch_inputs()]
        for case in cases:  # warm every cache
            ree_dispatch(*case)
        for module in (states, closed_form):
            monkeypatch.setattr(module, "_new", counted_new)
            monkeypatch.setattr(module, "_ri_state", counted_ri_state)
        monkeypatch.setattr(AlphaVector, "__post_init__", counted_post_init)
        AlphaVector(Spin(1), Spin(1), (1.0, 1 / math.sqrt(3)))
        states._alpha_vector(Spin(1), Spin(1), (1.0, 1 / math.sqrt(3)))
        assert built == ["AlphaVector", "AlphaVector"]  # both hooks are live
        for case in cases:
            built.clear()
            ree_dispatch(*case)
            assert built.count("AlphaVector") == 1
            assert "RIState" not in built
        assert states_made == []


def _near_a_prime(N):
    """Points 2^-k of the way from A' to each end of its four lines, and as far
    beyond A', each also 1 ulp off in x and in y; those NormalizedCoords takes."""
    ch = normalized_chart(N)
    ap = ch.a_prime
    points = set()
    for end in (ch.d, ch.e, ch.f or ch.c, ch.h or ch.b):
        for sign in (1.0, -1.0):
            for k in range(0, 110, 3):
                t = sign * 2.0 ** -k
                x, y = ap.x + t * (end.x - ap.x), ap.y + t * (end.y - ap.y)
                for dx in (-math.inf, 0.0, math.inf):
                    for dy in (-math.inf, 0.0, math.inf):
                        points.add((math.nextafter(x, dx) if dx else x,
                                    math.nextafter(y, dy) if dy else y))
    out = []
    for x, y in sorted(points):
        try:
            out.append(NormalizedCoords(x, y))
        except ValueError:  # beyond A' and past the simplex by more than NORM_TOL
            pass
    return out


MINIMIZER_NS = (3, 4, 5, 7, 101, 10**4 + 1, 10**8 + 1, 10**12 + 1, 10**20 + 1, 10**30 + 1)


class TestMinimizerBuiltOnce:
    """The 3(x)N closed forms build each minimizer once, from the sigma of
    _value_in_region, without checking that point again as a NormalizedCoords."""

    @pytest.mark.parametrize("N", MINIMIZER_NS)
    def test_sigma_is_inside_the_simplex(self, N):
        # why dropping the re-check is safe: NormalizedCoords leaves such a
        # point as it is, so the minimizer's first two coefficients are the
        # ones the re-check built
        floor = 2.0 / N / (N + 1)  # the third coordinate of A'
        for coords in _edge_points(N) + _near_a_prime(N):
            region = classify_region(N, coords)
            value, (sx, sy, sz), _ = _value_in_region(_per_n(N), *xy(coords), region)
            assert sx >= 0.0 and sy >= 0.0 and sx + sy <= 1.0
            res = ree_3xn(N, coords)
            rewrapped = normalized_to_raw(N, NormalizedCoords(sx, sy)).coeffs
            assert _bits(res.minimizer.alphas[:2]) == _bits(rewrapped.alphas[:2])
            # one third coordinate: the value is taken against the sigma_z the
            # minimizer carries, which is A''s or more off the separable region
            assert _bits(res.minimizer.alphas) == _bits(_alpha_vector_3xn(N, sx, sy, sz).alphas)
            assert res.value == value == _discrete_kl(
                (coords.ahat_lo, coords.ahat_mid, coords.ahat_hi), (sx, sy, sz))
            if region is Region.SEPARABLE:
                assert sz == coords.ahat_hi
            else:
                assert sz == max(1.0 - sx - sy, floor)
                assert res.minimizer.alphas[2] >= _prefactors(N)[2] * floor

    def test_no_coords_check_inside_the_closed_forms(self, monkeypatch):
        from ri_entropy import closed_form

        runs = []
        check, convert = NormalizedCoords.__init__, closed_form._coords_of_alphas

        def counted(self, *args, **kwargs):
            runs.append("check")
            check(self, *args, **kwargs)

        def counted_convert(N, alphas):
            before = len(runs)
            coords = convert(N, alphas)
            del runs[before:]  # its own check, taken only for a sum above 1
            runs.append("_coords_of_alphas")
            return coords

        def runs_of(fn, *args):
            runs.clear()
            fn(*args)
            return runs[:]

        cases = []
        for N in (3, 4, 5, 7, 10**8 + 1, 10**12 + 1):
            points = _centroids(N) + _edge_points(N)
            assert {ree_3xn(N, c).region for c in points} == {r for r, _ in region_polygons(N)}
            cases += [(N, c, normalized_to_raw(N, c).alphas()) for c in points]
        monkeypatch.setattr(NormalizedCoords, "__init__", counted)
        monkeypatch.setattr(closed_form, "_coords_of_alphas", counted_convert)
        assert runs_of(NormalizedCoords, 0.2, 0.3) == ["check"]  # the hook is live
        for N, coords, raw in cases:
            assert runs_of(ree_3xn, N, coords) == []
            # only the conversion of the input vector
            assert runs_of(ree_dispatch, Spin(2), Spin(N - 1), raw) == ["_coords_of_alphas"]

    @pytest.mark.parametrize("N", MINIMIZER_NS)
    def test_aux_point_is_the_minimizer(self, N):
        flanking = 0
        for coords in _edge_points(N) + _near_a_prime(N) + _centroids(N):
            res = ree_3xn(N, coords)
            if res.aux is not None:
                flanking += 1
                assert _bits(res.aux.minimizer_point) == _bits(res.minimizer.alphas[:2])
        assert flanking > 0 or N == 3


class TestNumpyIntegerN:
    @pytest.mark.parametrize("N", [7, 10**8 + 1])
    def test_numpy_integer_n_matches_int_n(self, N):
        points = [NormalizedCoords(0.05, 0.9), *_centroids(N)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, n in ((ree_3xn_odd, N), (e_gamma_3xn_even, N - 1)):
                for coords in points:
                    by_int, by_numpy = fn(n, coords), fn(np.int64(n), coords)
                    assert repr(by_numpy) == repr(by_int)
                    assert type(by_numpy.minimizer.j2.twice_j) is int
                    assert normalized_to_raw(np.int64(n), coords) == normalized_to_raw(n, coords)

    def test_float_n_is_still_refused(self):
        coords = NormalizedCoords(0.05, 0.9)
        with pytest.raises(ValueError, match=r"^need integer N >= 3, got 7.0$"):
            ree_3xn_odd(7.0, coords)
        with pytest.raises(ValueError, match=r"^need integer N >= 3, got 8.0$"):
            e_gamma_3xn_even(8.0, coords)


def _fast_path_objects():
    """(label, object) of every type the closed forms build by field stores.

    Each REEResult family through its library function and through
    ree_dispatch, the RootInfo of each flanking result, every minimizer, and
    the RIState of make_ri_state (plain and renormalized), state_2xn and
    normalized_to_raw.
    """
    out = []

    def result(label, res):
        out.append((label, res))
        out.append((f"{label} minimizer", res.minimizer))
        if res.aux is not None:
            out.append((f"{label} aux", res.aux))

    for tj in (1, 3):
        j = Spin(tj)
        for p in (0.2, 0.97):
            result(f"ree_2xn {tj} {p}", ree_2xn(j, p))
            result(f"ree_dispatch 2xN {tj} {p}", ree_dispatch(Spin(1), j, state_2xn(j, p).alphas()))
            out.append((f"state_2xn {tj} {p}", state_2xn(j, p)))
    for N, fn in ((3, lambda N, c: ree_3x3(c)), (7, ree_3xn_odd), (8, e_gamma_3xn_even)):
        for coords in _centroids(N):
            result(f"3x{N} {coords}", fn(N, coords))
            raw = normalized_to_raw(N, coords)
            out.append((f"normalized_to_raw {N} {coords}", raw))
            result(f"ree_dispatch 3x{N} {coords}", ree_dispatch(Spin(2), Spin(N - 1), raw.alphas()))
    alphas = normalized_to_raw(7, NormalizedCoords(0.2, 0.3)).coeffs.alphas
    out.append(("make_ri_state", make_ri_state(Spin(2), Spin(6), alphas)))
    renormalized = make_ri_state(Spin(2), Spin(6), tuple(a * (1 + 1e-9) for a in alphas))
    assert renormalized.renormalized
    out.append(("make_ri_state renormalized", renormalized))
    return out


def _constructed(obj):
    """A normally constructed instance with the fields of obj."""
    return type(obj)(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


FAST_PATH_OBJECTS = _fast_path_objects()


class TestFieldStoreBuilders:
    """Results, root records, minimizers and states built by field stores keep the
    contract of the frozen dataclasses they are instances of."""

    def test_every_type_is_covered(self):
        types = {type(obj) for _, obj in FAST_PATH_OBJECTS}
        assert types == {REEResult, RootInfo, AlphaVector, RIState}
        regions = {obj.region for _, obj in FAST_PATH_OBJECTS if type(obj) is REEResult}
        assert regions == set(Region)

    def test_equals_a_constructed_instance(self):
        for label, obj in FAST_PATH_OBJECTS:
            made = _constructed(obj)
            assert obj == made and made == obj, label
            assert hash(obj) == hash(made), label
            assert repr(obj) == repr(made), label
            names = [f.name for f in dataclasses.fields(obj)]
            assert list(vars(obj)) == names == list(vars(made)), label
            assert dataclasses.astuple(obj) == dataclasses.astuple(made), label

    def test_frozen_and_picklable(self):
        for label, obj in FAST_PATH_OBJECTS:
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, f.name)
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj), label
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj), label
            assert list(vars(back)) == list(vars(obj)), label

    def test_renormalized_stays_out_of_equality(self):
        states_ = {label: obj for label, obj in FAST_PATH_OBJECTS}
        plain, repaired = states_["make_ri_state"], states_["make_ri_state renormalized"]
        assert (plain.renormalized, repaired.renormalized) == (False, True)
        flipped = RIState(repaired.coeffs, renormalized=False)
        assert repaired == flipped and hash(repaired) == hash(flipped)
        assert pickle.loads(pickle.dumps(repaired)).renormalized is True

    @pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython object layout")
    def test_builders_use_the_compact_instance_layout(self):
        """A built instance takes no more memory than one from the frozen __init__:
        field stores, not a materialized per-instance __dict__."""

        @dataclasses.dataclass(frozen=True)
        class ThreeFields:  # AlphaVector's fields, without its validating __post_init__
            j1: object
            j2: object
            alphas: object

        def bytes_each(make, n=2000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = [make() for _ in range(n)]
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(kept) == n
            return (after - before) / n

        res = ree_3xn_odd(7, NormalizedCoords(0.05, 0.9))
        root, vec = res.aux, res.minimizer
        state = make_ri_state(vec.j1, vec.j2, vec.alphas)
        pairs = {
            "REEResult": (lambda: _ree_result(res.value, res.region, vec, res.quantity, root),
                          lambda: REEResult(res.value, res.region, vec, res.quantity, root)),
            "RootInfo": (lambda: _root_info(root.branch, root.root, root.t, root.minimizer_point),
                         lambda: RootInfo(root.branch, root.root, root.t, root.minimizer_point)),
            "RIState": (lambda: states._ri_state(vec, True), lambda: RIState(vec, True)),
            "AlphaVector": (lambda: AlphaVector._unchecked(vec.j1, vec.j2, vec.alphas),
                            lambda: ThreeFields(vec.j1, vec.j2, vec.alphas)),
        }
        for name, (built, made) in pairs.items():
            assert bytes_each(built) <= bytes_each(made) + 4, name


class TestNCheckedOnce:
    def test_closed_forms_check_n_once(self, monkeypatch):
        """The closed forms check N at their entry and classify it without a second check."""
        from ri_entropy import closed_form, geometry

        runs = []

        def counted(N, minimum=3):
            runs.append(N)
            return states._check_n(N, minimum)

        monkeypatch.setattr(closed_form, "_check_n", counted)
        monkeypatch.setattr(geometry, "_check_n", counted)
        for N, fn in ((3, lambda N, c: ree_3x3(c)), (7, ree_3xn_odd), (8, e_gamma_3xn_even)):
            for coords in _centroids(N):
                runs.clear()
                fn(N, coords)
                assert len(runs) == (N > 3)  # ree_3x3 takes no N
                runs.clear()
                ree_dispatch(Spin(2), Spin(N - 1), normalized_to_raw(N, coords).alphas())
                assert runs == []  # N = 2 j2 + 1 of a validated state
        runs.clear()
        classify_region(7, NormalizedCoords(0.2, 0.3))
        assert runs == [7]
