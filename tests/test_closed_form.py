"""Tests for the closed-form E_r / E_Gamma expressions."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_entropy.angular import Spin
from ri_entropy.closed_form import (
    Region,
    UnsupportedFamilyError,
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
from ri_entropy.geometry import classify_region, normalized_chart, ppt_polygon, region_polygons
from ri_entropy.oracle import minimize_kl_over_polygon
from ri_entropy.states import (
    AlphaVector,
    NormalizedCoords,
    RIState,
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
        poly = ppt_polygon(5)
        x_f = 2 / 4  # barycentric x of F for N = 5 is (N-3)/(N-1) = 1/2
        for s in np.linspace(0.0, 1.0, 9):
            x = s * x_f
            coords = NormalizedCoords(x, 1.0 - x)  # on segment CB
            res = ree_3xn_odd(5, coords)
            assert res.region is Region.POLY_APRIME_FCE
            orac = minimize_kl_over_polygon(5, coords, poly).optimum_value
            assert res.value == pytest.approx(orac, abs=1e-6)

    def test_ab_edge_matches_oracle_n5(self):
        """E_r along the alpha_j = 0 edge (the A'DH stretch) agrees with the
        oracle, confirming the b-root formula against the worked case."""
        ch = normalized_chart(5)
        poly = ppt_polygon(5)
        for x in np.linspace(ch.d.x + 1e-6, 1.0, 9):
            coords = NormalizedCoords(x, 0.0)
            res = ree_3xn(5, coords)
            orac = minimize_kl_over_polygon(5, coords, poly).optimum_value
            assert res.value == pytest.approx(orac, abs=1e-6)


class Test3xNEven:
    def test_vertex_b_n4(self):
        res = e_gamma_3xn_even(4, NormalizedCoords(1.0, 0.0))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert res.quantity == "E_Gamma"

    def test_vertex_c_n6_matches_oracle(self):
        coords = NormalizedCoords(0.0, 1.0)
        res = e_gamma_3xn_even(6, coords)
        orac = minimize_kl_over_polygon(6, coords, ppt_polygon(6)).optimum_value
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
                va = _value_in_region(N, coords, r_left)[0]
                vb = _value_in_region(N, coords, r_right)[0]
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


def _golden_calls():
    """(fn, args) of a fixed seeded input set.

    Inputs come from `random.Random`, whose stream does not depend on the
    numpy version.
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
                points.append((sum(wt * v.x for wt, v in zip(weights, poly)),
                               sum(wt * v.y for wt, v in zip(weights, poly))))
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
GOLDEN_SHA256 = "84127fec66104a0acbfbb64e2dd5a91fdaf2a688e73118fa2bba52fdb06027bc"


class TestGoldenValues:
    """Closed-form outputs pinned bit for bit: a refactor must leave them unchanged."""

    def test_outputs_are_bit_identical(self):
        records = _golden_records()
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert (len(records), digest) == (GOLDEN_COUNT, GOLDEN_SHA256)


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
        runs = []
        validate = AlphaVector.__post_init__

        def counted(self):
            runs.append(self)
            validate(self)

        monkeypatch.setattr(AlphaVector, "__post_init__", counted)

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

    def test_3xn_builder_matches_make_ri_state(self):
        golden = {}
        for fn, args in _golden_calls():
            if fn is ree_3xn:
                golden.setdefault(args[0], []).append(args[1])
        for N in VALID_BY_CONSTRUCTION_NS:
            pre = (math.sqrt(3 * N / (N - 2)), math.sqrt(3.0), math.sqrt(3 * N / (N + 2)))
            points = _edge_points(N) + golden.get(N, [])
            # each point, and the minimizer the closed form builds for it
            minimizers = [NormalizedCoords(*_value_in_region(N, c, classify_region(N, c))[1])
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
