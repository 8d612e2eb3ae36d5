"""Tests for the RI state family, the twirl, and the KL reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_entropy.angular import DenseOperator, Spin, coupled_basis_vector, coupling_range, projector
from ri_entropy.states import (
    AlphaVector,
    NormalizedCoords,
    block_weights,
    kl_alpha,
    make_ri_state,
    maximally_mixed,
    normalized_to_raw,
    quantum_relative_entropy,
    raw_to_normalized,
    to_density,
    twirl,
)

SPIN_PAIRS = [(Spin(1), Spin(1)), (Spin(1), Spin(2)), (Spin(1), Spin(3)),
              (Spin(2), Spin(2)), (Spin(2), Spin(4)), (Spin(2), Spin(3))]


def random_state(j1: Spin, j2: Spin, rng) -> "make_ri_state":
    w = block_weights(j1, j2)
    probs = rng.dirichlet(np.ones(len(w)))
    return make_ri_state(j1, j2, probs / w)


class TestMakeRIState:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            make_ri_state(Spin(1), Spin(1), (0.0, 0.0))

    def test_pure_singlet_block(self):
        s = make_ri_state(Spin(1), Spin(1), (2.0, 0.0))
        assert s.coeffs.probabilities()[0] == pytest.approx(1.0)

    def test_maximally_mixed_valid(self):
        for j1, j2 in SPIN_PAIRS:
            s = maximally_mixed(j1, j2)
            assert float(s.coeffs.probabilities().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_ri_state(Spin(1), Spin(1), (2.0, 0.0, 0.0))

    def test_negative_beyond_slack(self):
        with pytest.raises(ValueError):
            make_ri_state(Spin(1), Spin(1), (-0.1, 1.2))

    def test_tiny_negative_clamped(self):
        s = make_ri_state(Spin(1), Spin(1), (2.0 + 2e-12, -0.5e-12))
        assert s.coeffs.alphas[1] == 0.0

    def test_small_deviation_renormalized_and_flagged(self):
        s = make_ri_state(Spin(1), Spin(1), (2.0 * (1 + 1e-9), 0.0))
        assert s.renormalized
        assert float(s.coeffs.probabilities().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError):
            make_ri_state(Spin(1), Spin(1), (2.2, 0.0))

    def test_swapped_spins_rejected(self):
        with pytest.raises(ValueError):
            AlphaVector(Spin(2), Spin(1), (1.0, 1.0))

    def test_refusals_come_from_alpha_vector(self):
        for alphas, message in (((2.0, 0.0, 0.0), "expected 2 coefficients"),
                                ((2.2, 0.0), "not normalized"),
                                ((2.0, math.nan), "non-finite"),
                                ((2.0, -1e-9), "negative coefficient")):
            for build in (make_ri_state, AlphaVector):
                with pytest.raises(ValueError, match=message):
                    build(Spin(1), Spin(1), alphas)
        # boundary inputs: (j1, j2, alphas, make_ri_state outcome, AlphaVector
        # outcome), each outcome a refusal message or (stored alphas, renormalized)
        half, one = Spin(1), Spin(2)
        not_normalized = "coefficients not normalized: weighted sum = "
        cases = [
            # total off by just under / just over NORM_TOL
            (half, half, (2.0 * (1 + 0.9e-10), 0.0),
             ((2.00000000018, 0.0), False), ((2.00000000018, 0.0), False)),
            (half, half, (2.0 * (1 + 1.1e-10), 0.0),
             ((2.0, 0.0), True), not_normalized + "1.00000000011"),
            # total off by just under / just over RENORM_TOL
            (half, half, (2.0 * (1 - 0.99e-8), 0.0),
             ((2.0, 0.0), True), not_normalized + "0.9999999901"),
            (half, half, (2.0 * (1 + 1.01e-8), 0.0),
             not_normalized + "1.0000000101", not_normalized + "1.0000000101"),
            # the clamping edge NEG_CLAMP
            (half, half, (2.0, -1e-12), ((2.0, 0.0), False), ((2.0, 0.0), False)),
            (half, half, (2.0, -1.0000001e-12),
             "negative coefficient -1.0000001e-12", "negative coefficient -1.0000001e-12"),
            # infinities: +inf spoils the total, -inf is clamped out of it
            (half, half, (math.inf, 0.0), not_normalized + "inf", not_normalized + "inf"),
            (half, half, (2.0, -math.inf), "non-finite coefficient", "non-finite coefficient"),
            # swapped spins: the length is judged first, then the total
            (one, half, (2.0, 0.0, 0.0),
             "expected 2 coefficients for (Spin(1), Spin(1/2)), got 3",
             "expected 2 coefficients for (Spin(1), Spin(1/2)), got 3"),
            (one, half, (math.sqrt(3.0), 0.0), "expected j2 >= j1", "expected j2 >= j1"),
            (one, half, (math.sqrt(3.0) * (1 + 5e-9), 0.0),
             "expected j2 >= j1", not_normalized + "1.000000005"),
        ]
        for j1, j2, alphas, by_make, by_vector in cases:
            for build, expected in ((make_ri_state, by_make), (AlphaVector, by_vector)):
                if isinstance(expected, str):
                    with pytest.raises(ValueError) as info:
                        build(j1, j2, alphas)
                    assert str(info.value) == expected
                else:
                    made = build(j1, j2, alphas)
                    vector = getattr(made, "coeffs", made)
                    assert (vector.alphas, getattr(made, "renormalized", False)) == expected


class TestToDensity:
    def test_maximally_mixed_dense(self):
        rho = to_density(maximally_mixed(Spin(1), Spin(2))).mat
        assert np.abs(rho - np.eye(6) / 6).max() < 1e-14

    def test_singlet_outer_product(self):
        rho = to_density(make_ri_state(Spin(1), Spin(1), (2.0, 0.0))).mat
        v = coupled_basis_vector(Spin(1), Spin(1), Spin(0), 0)
        assert np.abs(rho - np.outer(v, v)).max() < 1e-14

    def test_trace_one_and_psd(self):
        rng = np.random.default_rng(0)
        for j1, j2 in SPIN_PAIRS:
            rho = to_density(random_state(j1, j2, rng)).mat
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-13

    def test_block_eigenvalues_and_multiplicities(self):
        rng = np.random.default_rng(1)
        for j1, j2 in SPIN_PAIRS:
            s = random_state(j1, j2, rng)
            dim = j1.dim * j2.dim
            expected = sorted(
                (a / math.sqrt(dim * J.dim), J.dim)
                for J, a in zip(coupling_range(j1, j2), s.alphas()))
            evs = np.linalg.eigvalsh(to_density(s).mat)
            flat = [lam for lam, mult in expected for _ in range(mult)]
            assert np.abs(evs - np.sort(flat)).max() < 1e-10

    def test_commutes_with_projectors(self):
        rng = np.random.default_rng(2)
        s = random_state(Spin(2), Spin(4), rng)
        rho = to_density(s).mat
        for J in coupling_range(Spin(2), Spin(4)):
            P = projector(Spin(2), Spin(4), J).mat
            assert np.abs(rho @ P - P @ rho).max() < 1e-12


class TestTwirl:
    @pytest.mark.parametrize("j1,j2", [(p[0], p[1]) for p in SPIN_PAIRS]
                             + [(Spin(1), Spin(1))])
    def test_round_trip(self, j1, j2):
        rng = np.random.default_rng(hash((j1.twice_j, j2.twice_j)) % 2**31)
        s = random_state(j1, j2, rng)
        back = twirl(to_density(s), j1, j2)
        assert np.abs(back.alphas() - s.alphas()).max() < 1e-12

    def test_identity_to_maximally_mixed(self):
        j1, j2 = Spin(1), Spin(2)
        out = twirl(DenseOperator(np.eye(6) / 6, dims=(2, 3)), j1, j2)
        assert np.abs(out.alphas() - maximally_mixed(j1, j2).alphas()).max() < 1e-12

    def test_product_state_weights(self):
        # |up,up> is the stretched J=1 state: no weight on the J=0 block
        up_up = np.zeros((4, 4))
        up_up[0, 0] = 1.0
        out = twirl(DenseOperator(up_up, dims=(2, 2)), Spin(1), Spin(1))
        probs = out.coeffs.probabilities()
        assert probs[0] == pytest.approx(0.0, abs=1e-12)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError):
            twirl(DenseOperator(np.eye(4), dims=(2, 2)), Spin(1), Spin(1))


class TestKL:
    def test_self_is_zero(self):
        s = maximally_mixed(Spin(2), Spin(2))
        assert kl_alpha(s, s) == 0.0

    def test_singlet_vs_mixed(self):
        rho = make_ri_state(Spin(1), Spin(1), (2.0, 0.0))
        sigma = maximally_mixed(Spin(1), Spin(1))
        dense = quantum_relative_entropy(to_density(rho), to_density(sigma))
        assert kl_alpha(rho, sigma) == pytest.approx(dense, abs=1e-12)
        assert dense == pytest.approx(math.log(4), abs=1e-12)  # pure state vs I/4

    def test_support_violation_infinite(self):
        rho = maximally_mixed(Spin(1), Spin(1))
        sigma = make_ri_state(Spin(1), Spin(1), (2.0, 0.0))
        assert kl_alpha(rho, sigma) == math.inf

    def test_mismatched_spins_rejected(self):
        with pytest.raises(ValueError):
            kl_alpha(maximally_mixed(Spin(1), Spin(1)), maximally_mixed(Spin(1), Spin(3)))

    def test_matches_dense_relative_entropy(self):
        rng = np.random.default_rng(3)
        for j1, j2 in SPIN_PAIRS:
            rho, sigma = random_state(j1, j2, rng), random_state(j1, j2, rng)
            dense = quantum_relative_entropy(to_density(rho), to_density(sigma))
            assert kl_alpha(rho, sigma) == pytest.approx(dense, abs=1e-10)

    def test_joint_convexity(self):
        rng = np.random.default_rng(4)
        j1, j2 = Spin(2), Spin(3)
        for _ in range(25):
            r1, r2 = random_state(j1, j2, rng), random_state(j1, j2, rng)
            s1, s2 = random_state(j1, j2, rng), random_state(j1, j2, rng)
            mix_r = make_ri_state(j1, j2, (r1.alphas() + r2.alphas()) / 2)
            mix_s = make_ri_state(j1, j2, (s1.alphas() + s2.alphas()) / 2)
            bound = (kl_alpha(r1, s1) + kl_alpha(r2, s2)) / 2
            assert kl_alpha(mix_r, mix_s) <= bound + 1e-12


class TestQuantumRelativeEntropy:
    def test_self_zero(self):
        rho = to_density(maximally_mixed(Spin(1), Spin(2)))
        assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        v = coupled_basis_vector(Spin(2), Spin(2), Spin(0), 0)
        pure = DenseOperator(np.outer(v, v), dims=(3, 3))
        mixed = DenseOperator(np.eye(9) / 9, dims=(3, 3))
        assert quantum_relative_entropy(pure, mixed) == pytest.approx(math.log(9), abs=1e-12)

    def test_support_violation(self):
        v = np.zeros((2, 2))
        v[0, 0] = 1.0
        w = np.zeros((2, 2))
        w[1, 1] = 1.0
        assert quantum_relative_entropy(DenseOperator(v), DenseOperator(w)) == math.inf

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            quantum_relative_entropy(DenseOperator(bad), DenseOperator(np.eye(2) / 2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            quantum_relative_entropy(DenseOperator(m), DenseOperator(np.eye(2) / 2))


class TestNormalizedCoords:
    def test_vertices(self):
        for N in (3, 4, 5, 7):
            B = normalized_to_raw(N, NormalizedCoords(1.0, 0.0))
            C = normalized_to_raw(N, NormalizedCoords(0.0, 1.0))
            assert raw_to_normalized(B).ahat_lo == pytest.approx(1.0, abs=1e-12)
            assert raw_to_normalized(C).ahat_mid == pytest.approx(1.0, abs=1e-12)

    def test_a_prime_coordinates(self):
        # the PPT image of vertex A sits at ((N-2)/N, 2/(N+1))
        for N in (3, 5, 8):
            raw = (math.sqrt(3 * (N - 2) / N), 2 * math.sqrt(3.0) / (N + 1),
                   2 / (N + 1) * math.sqrt(3 / (N * (N + 2))))
            s = make_ri_state(Spin(2), Spin(N - 1), raw)
            c = raw_to_normalized(s)
            assert c.ahat_lo == pytest.approx((N - 2) / N, abs=1e-12)
            assert c.ahat_mid == pytest.approx(2 / (N + 1), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from([3, 4, 5, 6, 7, 9]))
    def test_round_trip(self, u, v, N):
        x, y = min(u, v), abs(u - v)
        coords = NormalizedCoords(x, y)
        back = raw_to_normalized(normalized_to_raw(N, coords))
        assert abs(back.ahat_lo - x) < 1e-12
        assert abs(back.ahat_mid - y) < 1e-12

    def test_within_tolerance_outside_is_moved_onto_the_simplex(self):
        c = NormalizedCoords(-5e-11, 0.5)
        assert (c.ahat_lo, c.ahat_mid) == (0.0, 0.5)
        c = NormalizedCoords(0.25 + 5e-11, 0.75 + 5e-11)
        assert c.ahat_lo + c.ahat_mid == pytest.approx(1.0, abs=1e-15)
        assert c.ahat_lo / c.ahat_mid == pytest.approx(1 / 3, rel=1e-9)

    @pytest.mark.parametrize("N, message", [
        (2, "need N >= 3"), (5.0, "twice_j must be a non-negative integer, got 4.0")])
    def test_normalized_to_raw_refuses_bad_n(self, N, message):
        with pytest.raises(ValueError) as info:
            normalized_to_raw(N, NormalizedCoords(0.25, 0.5))
        assert str(info.value) == message

    def test_third_coordinate_is_never_negative(self):
        # 1.0 + 1e-17 rounds to 1.0, so no rescale happens; the rest is clamped
        c = NormalizedCoords(1.0, 1e-17)
        assert (c.ahat_lo, c.ahat_mid) == (1.0, 1e-17)
        assert c.ahat_hi == 0.0
        assert NormalizedCoords(0.25, 0.5).ahat_hi == 0.25

    def test_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            NormalizedCoords(0.7, 0.7)
        with pytest.raises(ValueError):
            NormalizedCoords(-0.1, 0.5)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            raw_to_normalized(maximally_mixed(Spin(1), Spin(1)))
