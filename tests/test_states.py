"""Tests for the RI state family, the twirl, and the KL reductions."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_entropy import states
from ri_entropy.angular import (
    DenseOperator,
    Spin,
    _m_blocks,
    coupled_basis_vector,
    coupling_range,
    partial_time_reversal,
    projector,
)
from ri_entropy.closed_form import p_of_state, ree_dispatch
from ri_entropy.geometry import Region, classify_region
from ri_entropy.oracle import ppt_min_eigenvalue
from ri_entropy.states import (
    NORM_TOL,
    RENORM_TOL,
    AlphaVector,
    NormalizedCoords,
    RIState,
    alpha_coords,
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
            # finite coefficients whose total passes the float range: a total of inf
            (one, one, (1.7e308,) * 3, not_normalized + "inf", not_normalized + "inf"),
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

    @pytest.mark.parametrize("j1, j2, alphas, message", [
        # a NaN total passes the normalization check; then each coefficient in
        # turn is judged finite, then not below -NEG_CLAMP
        (Spin(2), Spin(6), (-1.0, math.nan, 0.5), "negative coefficient -1.0"),
        (Spin(2), Spin(6), (math.nan, -1.0, 0.5), "non-finite coefficient"),
        (Spin(2), Spin(6), (-1e-9, math.sqrt(3.0), math.nan), "negative coefficient -1e-09"),
        (Spin(2), Spin(6), (math.inf, -1.0, math.nan), "non-finite coefficient"),
        (Spin(1), Spin(1), (-1.0, math.nan), "negative coefficient -1.0"),
        (Spin(1), Spin(1), (math.nan, -1.0), "non-finite coefficient"),
        # +inf makes the total inf, refused first; -inf is clamped out of the total
        (Spin(2), Spin(6), (math.inf, 0.0, 0.0), "coefficients not normalized: weighted sum = inf"),
        (Spin(2), Spin(6), (math.inf, -math.inf, 0.0),
         "coefficients not normalized: weighted sum = inf"),
        (Spin(2), Spin(6), (-math.inf, 0.0, 0.0),
         "coefficients not normalized: weighted sum = 0.0"),
        (Spin(2), Spin(6), (-math.inf, math.sqrt(3.0), 0.0), "non-finite coefficient"),
        (Spin(2), Spin(6), (-1.0, math.sqrt(3.0), -math.inf), "negative coefficient -1.0"),
        (Spin(2), Spin(6), (-math.inf, math.nan, -1.0), "non-finite coefficient"),
        # the length, then the total, then the spin order, before any coefficient
        (Spin(2), Spin(6), (math.nan, -1.0),
         "expected 3 coefficients for (Spin(1), Spin(3)), got 2"),
        (Spin(2), Spin(1), (math.nan, -1.0), "expected j2 >= j1"),
    ])
    def test_messages_of_vectors_with_several_faults(self, j1, j2, alphas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_ri_state(j1, j2, alphas)

    @staticmethod
    def _built(build, j1, j2, alphas):
        """(stored alphas, renormalized) of a build, or 'Error: message' of its refusal."""
        try:
            made = build(j1, j2, alphas)
        except (TypeError, ValueError) as exc:
            kind = ValueError if isinstance(exc, ValueError) else TypeError
            return f"{kind.__name__}: {exc}"
        return getattr(made, "coeffs", made).alphas, getattr(made, "renormalized", False)

    def test_outside_input_types(self):
        # (j1, j2, convert, alphas, make_ri_state outcome, AlphaVector outcome): each
        # build is given convert(alphas), so that a generator is fresh for each
        half, one, three_halves = Spin(1), Spin(2), Spin(3)
        mixed = tuple(block_weights(one, three_halves).tolist())  # I/12 of 1(x)3/2

        def generator(alphas):
            return (a for a in alphas)

        def float32(alphas):
            return np.array(alphas, dtype=np.float32)

        def strings(alphas):
            return tuple(map(str, alphas))

        not_normalized = "ValueError: coefficients not normalized: weighted sum = "
        cases = [
            (half, half, generator, (2.0, 0.0), ((2.0, 0.0), False), ((2.0, 0.0), False)),
            # a string that is not a number, in a vector of the wrong length: each
            # coefficient is floated before the length is judged
            (half, half, tuple, ("x",), "ValueError: could not convert string to float: 'x'",
             "ValueError: could not convert string to float: 'x'"),
            # numpy arrays, as twirl passes them: float32 rounding needs a repair
            (one, three_halves, np.array, mixed, (mixed, False), (mixed, False)),
            (one, three_halves, float32, mixed,
             ((0.4082483087804747, 0.5773502637200133, 0.7071067750773667), True),
             not_normalized + "0.9999999915254152"),
            # numeric strings: floated, then renormalized
            (half, half, strings, (2.000000001, 0.0), ((2.0, 0.0), True),
             not_normalized + "1.0000000005"),
            # a repaired vector whose divided coefficient lands just inside, and
            # just past, -NEG_CLAMP
            (half, half, tuple, (2.0 * (1 + 5e-9), -1e-12), ((2.0, 0.0), True),
             not_normalized + "1.000000005"),
            (half, half, tuple, (2.0 * (1 - 5e-9), -1.000000001e-12),
             "ValueError: negative coefficient -1.000000006e-12",
             not_normalized + "0.999999995"),
        ]
        for j1, j2, convert, alphas, by_make, by_vector in cases:
            for build, expected in ((make_ri_state, by_make), (AlphaVector, by_vector)):
                assert self._built(build, j1, j2, convert(alphas)) == expected


# (a total at a tolerance edge, the make_ri_state verdicts one ulp below it, at it
# and one ulp above it); the same for every spin pair of TestNormalizationEdges
EDGE_OUTCOMES = [
    (1.0 - RENORM_TOL, ("refused", "refused", "renormalized")),
    (1.0 - NORM_TOL, ("renormalized", "renormalized", "accepted")),
    (1.0 + NORM_TOL, ("accepted", "renormalized", "renormalized")),
    (1.0 + RENORM_TOL, ("renormalized", "renormalized", "refused")),
]


class TestNormalizationEdges:
    """Vectors of several blocks whose intended weighted totals lie at the
    NORM_TOL and RENORM_TOL edges: pinned so that a change in how the total
    is summed shows as a changed verdict."""

    SHARES = {1: (0.3, 0.7), 2: (0.2, 0.3, 0.5)}  # block probabilities by 2 j1

    @staticmethod
    def _outcome(j1, j2, alphas):
        try:
            state = make_ri_state(j1, j2, alphas)
        except ValueError as exc:
            assert str(exc).startswith("coefficients not normalized: weighted sum = ")
            return "refused"
        return "renormalized" if state.renormalized else "accepted"

    @pytest.mark.parametrize("tj1,tj2", [(1, 2), (1, 9), (2, 2), (2, 6)])
    @pytest.mark.parametrize("edge,expected", EDGE_OUTCOMES,
                             ids=["1-RENORM_TOL", "1-NORM_TOL", "1+NORM_TOL", "1+RENORM_TOL"])
    def test_outcome_at_edge(self, tj1, tj2, edge, expected):
        j1, j2 = Spin(tj1), Spin(tj2)
        w = block_weights(j1, j2).tolist()
        outcomes = tuple(
            self._outcome(j1, j2, tuple(total * c / wk for c, wk in zip(self.SHARES[tj1], w)))
            for total in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)))
        assert outcomes == expected


def _checked_alphas_ordered(j1, j2, alphas, renorm_tol=RENORM_TOL):
    """`states._checked_alphas` as it was before it took a valid vector in one pass:
    every vector through the ordered checks.  Kept frozen, as the reference."""
    w = states._block_weights(j1.twice_j, j2.twice_j)
    vals = [float(a) for a in alphas]
    if len(vals) != len(w):
        raise ValueError(f"expected {len(w)} coefficients for ({j1}, {j2}), got {len(vals)}")
    for renormalized in (False, True):
        clamped = [0.0 if a < 0.0 else a for a in vals]
        try:
            total = math.fsum(map(lambda wk, a: wk * a, w, clamped))
        except OverflowError:
            total = math.inf
        if renormalized or not NORM_TOL < abs(total - 1.0) < renorm_tol:
            break
        vals = [a / total for a in vals]
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"coefficients not normalized: weighted sum = {total}")
    if j2.twice_j < j1.twice_j:
        raise ValueError("expected j2 >= j1")
    for a in vals:
        if not math.isfinite(a):
            raise ValueError("non-finite coefficient")
        if a < -states.NEG_CLAMP:
            raise ValueError(f"negative coefficient {a}")
    return tuple(clamped), renormalized


def _one_pass_table():
    """(j1, j2, alphas) of every kind of vector: valid; at the NORM_TOL edges and
    one ulp past them; renormalizable; overflowing; with NaN, +-inf, -0.0 or -1e-12
    and its neighbours in each place; one coefficient short or extra; j2 < j1."""
    edge = -states.NEG_CLAMP
    specials = (math.nan, math.inf, -math.inf, -0.0, 0.0, edge,
                math.nextafter(edge, -1.0), math.nextafter(edge, 0.0))
    totals = [1.0 + 1e-9, 1.0 - 1e-9]
    for t in (1.0 + NORM_TOL, 1.0 - NORM_TOL):
        totals += [t, math.nextafter(t, 0.0), math.nextafter(t, 2.0)]
    out = []
    for tj1, tj2 in ((1, 1), (1, 2), (1, 9), (2, 2), (2, 6), (2, 10**8), (3, 3)):
        j1, j2 = Spin(tj1), Spin(tj2)
        w = states._block_weights(tj1, tj2)
        shares = [k + 1.0 for k in range(len(w))]
        base = tuple(s / sum(shares) / wk for s, wk in zip(shares, w))
        vectors = [base, tuple(w), (1e308,) * len(w), (1.7e308,) * len(w),
                   base + (0.0,), base[:-1]]
        vectors += [tuple(t * a for a in base) for t in totals]
        for k in range(len(w)):  # first, middle and last place, of a block 0 or not
            rest = [0.0 if i == k else s for i, s in enumerate(shares)]
            zeroed = tuple(s / sum(rest) / wk for s, wk in zip(rest, w))
            for v in specials:
                vectors += [base[:k] + (v,) + base[k + 1:], zeroed[:k] + (v,) + zeroed[k + 1:]]
        vectors.append((math.nan,) + base[1:-1] + (-1.0,))
        out += [(j1, j2, a) for a in vectors]
        out += [(j2, j1, a) for a in vectors if tj1 != tj2]  # the same vectors, spins swapped
    return out


class TestOnePassCheck:
    """`_checked_alphas` stores, flags and refuses every vector as the ordered checks do."""

    @staticmethod
    def _verdict(check, *args):
        try:
            stored, renormalized = check(*args)
        except Exception as exc:
            return type(exc), str(exc)
        assert type(stored) is tuple
        return tuple(map(float.hex, stored)), renormalized

    @pytest.mark.parametrize("renorm_tol", [RENORM_TOL, 0.0])
    def test_table_matches_the_ordered_checks(self, renorm_tol):
        verdicts = set()
        for j1, j2, alphas in _one_pass_table():
            got = self._verdict(states._checked_alphas, j1, j2, alphas, renorm_tol)
            want = self._verdict(_checked_alphas_ordered, j1, j2, alphas, renorm_tol)
            assert got == want, (j1, j2, alphas)
            verdicts.add(want[1] if want[0] is ValueError else ("stored", want[1]))
        # accepted as given, renormalized (at RENORM_TOL only), and each refusal
        kinds = {v if isinstance(v, tuple) else v.split(" ")[0] for v in verdicts}
        assert kinds >= {("stored", False), "expected", "coefficients", "non-finite", "negative"}
        assert (("stored", True) in kinds) == (renorm_tol > 0.0)

    def test_random_vectors_match_the_ordered_checks(self):
        rng = np.random.default_rng(2025)
        for tj1, tj2 in ((1, 1), (1, 4), (2, 2), (2, 6), (2, 3)):
            j1, j2 = Spin(tj1), Spin(tj2)
            w = np.array(states._block_weights(tj1, tj2))
            for _ in range(300):
                alphas = rng.dirichlet(np.ones(len(w))) / w
                alphas *= 1.0 + rng.choice((0.0, 5e-11, -5e-11, 3e-9, 2e-8))
                alphas[rng.integers(len(w))] *= rng.choice((1.0, 1.0, -1e-13, 0.0))
                for args in ((j1, j2, alphas.tolist()), (j2, j1, alphas.tolist())):
                    assert self._verdict(states._checked_alphas, *args) == self._verdict(
                        _checked_alphas_ordered, *args), args


class TestToDensity:
    def test_dense_matrix_is_real(self):
        rng = np.random.default_rng(3)
        for j1, j2 in SPIN_PAIRS:
            assert to_density(random_state(j1, j2, rng)).mat.dtype == np.float64

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


# every spin pair of the benchmark's dense chains: 2(x)N for 2j <= 10, 3(x)N for N <= 11
DENSE_PAIRS = ([(Spin(1), Spin(tj)) for tj in range(1, 11)]
               + [(Spin(2), Spin(N - 1)) for N in range(3, 12)])
# pairs with j1 = 3/2, outside the closed forms' domain: the dense layer takes any spins
WIDER_PAIRS = [(Spin(3), Spin(3)), (Spin(3), Spin(8))]


class TestProjectorStacks:
    """to_density, alpha_coords and ppt_min_eigenvalue, each one product over a
    cached projector stack, against their per-J definitions.

    The bounds are about 10x the largest gaps seen over 50 seeded states of
    each pair: 5.6e-17 (matrix entries), 8.9e-16 (coordinates of a state),
    3.3e-16 (of a unit-norm complex operator) and 8.3e-17 (eigenvalue).
    """

    @staticmethod
    def per_j_coords(op, j1, j2):
        dim = j1.dim * j2.dim
        return np.array([np.vdot(projector(j1, j2, J).mat, op.mat).real * math.sqrt(dim / J.dim)
                         for J in coupling_range(j1, j2)])

    @pytest.mark.parametrize("j1,j2", DENSE_PAIRS)
    def test_match_per_j_definitions(self, j1, j2):
        rng = np.random.default_rng(70 + 16 * j1.twice_j + j2.twice_j)
        dim = j1.dim * j2.dim
        for _ in range(5):
            s = random_state(j1, j2, rng)
            rho = to_density(s)
            by_block = sum(a / math.sqrt(dim * J.dim) * projector(j1, j2, J).mat
                           for J, a in zip(coupling_range(j1, j2), s.alphas()))
            assert np.abs(rho.mat - by_block).max() <= 1e-15
            assert np.abs(alpha_coords(rho, j1, j2) - self.per_j_coords(rho, j1, j2)).max() <= 1e-14
            image = np.linalg.eigvalsh(partial_time_reversal(rho).mat)[0]
            assert abs(ppt_min_eigenvalue(s) - image) <= 1e-15

    @pytest.mark.parametrize("j1,j2", [(Spin(1), Spin(3)), (Spin(2), Spin(6))])
    def test_coords_of_a_complex_hermitian_operator(self, j1, j2):
        dim = j1.dim * j2.dim
        a = np.random.default_rng(dim).normal(size=(dim, dim, 2)) @ (1.0, 1j)
        h = DenseOperator((a + a.conj().T) / np.linalg.norm(a + a.conj().T), dims=(j1.dim, j2.dim))
        assert h.mat.dtype == np.complex128
        assert np.abs(alpha_coords(h, j1, j2) - self.per_j_coords(h, j1, j2)).max() <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTotalMBlocks:
    """quantum_relative_entropy solves the total-M blocks of RI operators,
    padded to one size, in one call; ppt_min_eigenvalue reads the spectrum of
    the partial time reversal off the reversal map.

    The whole matrix is the reference: `ppt_min_eigenvalue` against eigvalsh of
    the dense partial time reversal, and `quantum_relative_entropy` against
    itself on operators without dims, which take the one-block path.  The
    bounds are about 10x the largest gaps seen over these states: 8.3e-17
    (eigenvalue; 2.2e-16 with the map) and 1.6e-12 (relative entropy, whose
    Dirichlet draws reach values near 10 and block probabilities near 1e-5).
    """

    @staticmethod
    def whole(op):
        return DenseOperator(op.mat)  # no dims: one block of the whole matrix

    @pytest.mark.parametrize("j1,j2", DENSE_PAIRS + WIDER_PAIRS)
    def test_blocks_match_the_whole_matrix(self, j1, j2):
        rng = np.random.default_rng(90 + 16 * j1.twice_j + j2.twice_j)
        k = min(j1.dim, j2.dim)
        for _ in range(20):
            s, t = random_state(j1, j2, rng), random_state(j1, j2, rng)
            rho, sigma = to_density(s), to_density(t)
            ma, mb = states._diagonal_blocks(rho, sigma)
            assert ma.shape == mb.shape == (j1.dim + j2.dim - 1, k, k)
            image = np.linalg.eigvalsh(partial_time_reversal(rho).mat)[0]
            assert abs(ppt_min_eigenvalue(s) - image) <= 1e-15
            whole = quantum_relative_entropy(self.whole(rho), self.whole(sigma))
            assert abs(quantum_relative_entropy(rho, sigma) - whole) <= 2e-11

    def test_non_block_inputs_take_one_block(self):
        rng = np.random.default_rng(91)
        j1, j2 = Spin(2), Spin(4)
        a, b = (to_density(random_state(j1, j2, rng)) for _ in range(2))
        z = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        u = np.linalg.qr(z)[0]
        ua, ub = (DenseOperator(u @ op.mat @ u.conj().T, dims=(3, 5)) for op in (a, b))
        _, _, zero = _m_blocks(3, 5)
        for pair in ((ua, ub), (a, ub), (self.whole(a), b), (a, DenseOperator(b.mat, dims=(5, 3)))):
            assert states._diagonal_blocks(*pair)[0].shape == (1, 15, 15)
        # one off-block entry, at the padding's position or elsewhere, is enough
        for i, j in ((zero // 15, zero % 15), (4, 9)):
            m = a.mat.copy()
            m[i, j] = m[j, i] = 1e-3
            bumped = DenseOperator(m, dims=(3, 5))
            assert states._diagonal_blocks(bumped, b)[0].shape == (1, 15, 15)
            assert states._diagonal_blocks(b, bumped)[0].shape == (1, 15, 15)
            assert quantum_relative_entropy(bumped, b) == quantum_relative_entropy(
                self.whole(bumped), self.whole(b))

    @pytest.mark.parametrize("members", [(0,), (1, 5), (2, 6, 10)])
    def test_pure_block_in_b(self, members):
        """b pure inside one block of 3(x)5 (sizes 1, 2, 3): its eigenvalue 1 is
        degenerate with the padding of 1, and changes nothing."""
        v = np.zeros(15)
        v[list(members)] = np.arange(1.0, len(members) + 1.0)
        v /= np.linalg.norm(v)
        pure = DenseOperator(np.outer(v, v), dims=(3, 5))
        mixed = to_density(maximally_mixed(Spin(2), Spin(4)))
        assert states._diagonal_blocks(pure, pure)[1].shape == (7, 3, 3)
        assert quantum_relative_entropy(pure, pure) == pytest.approx(0.0, abs=1e-15)
        assert quantum_relative_entropy(self.whole(pure), self.whole(pure)) == pytest.approx(
            0.0, abs=1e-15)
        assert quantum_relative_entropy(mixed, pure) == math.inf
        assert quantum_relative_entropy(self.whole(mixed), self.whole(pure)) == math.inf
        assert quantum_relative_entropy(pure, mixed) == pytest.approx(math.log(15), abs=1e-13)

    @pytest.mark.parametrize("members", [(0,), (1, 5), (2, 6, 10)])
    def test_support_violation_inside_one_block(self, members):
        """b misses one direction inside one block: I/15 then has weight outside
        the support of b, and S(I/15 || b) = +inf on both paths."""
        v = np.zeros(15)
        v[list(members)] = 1.0
        v /= np.linalg.norm(v)
        b = DenseOperator((np.eye(15) - np.outer(v, v)) / 14, dims=(3, 5))
        a = to_density(maximally_mixed(Spin(2), Spin(4)))
        assert states._diagonal_blocks(a, b)[0].shape == (7, 3, 3)
        assert quantum_relative_entropy(a, b) == math.inf
        assert quantum_relative_entropy(self.whole(a), self.whole(b)) == math.inf
        assert quantum_relative_entropy(b, a) < math.inf

    @pytest.mark.parametrize("j1,j2", DENSE_PAIRS)
    def test_padding_never_lowers_the_ppt_eigenvalue(self, j1, j2):
        """The ends of the PPT test: the maximally mixed state has the largest
        smallest eigenvalue, 1/dim; the simplex vertices put all weight on one J.
        (Named for the padded eigen-solve that the reversal map replaced.)"""
        dim = j1.dim * j2.dim
        mixed = maximally_mixed(j1, j2)
        assert abs(ppt_min_eigenvalue(mixed) - 1.0 / dim) <= 1e-15
        w = block_weights(j1, j2)
        for i in range(len(w)):
            vertex = make_ri_state(j1, j2, np.eye(len(w))[i] / w[i])
            image = np.linalg.eigvalsh(partial_time_reversal(to_density(vertex)).mat)[0]
            assert abs(ppt_min_eigenvalue(vertex) - image) <= 1e-15

    def test_density_is_built_as_init_builds_it(self):
        """to_density stores its fields as DenseOperator's __init__ would."""
        rho = to_density(random_state(Spin(2), Spin(4), np.random.default_rng(92)))
        assert repr(rho) == repr(DenseOperator(rho.mat, dims=(3, 5)))
        assert rho.dims == (3, 5) and rho.mat.dtype == np.float64 and rho.mat.shape == (15, 15)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0


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

    def test_entropy_term_is_one_fsum(self):
        """tr(a ln a) is one math.fsum: builtin sum() rounds each addition up to
        Python 3.11 and compensates from 3.12 on, so with it the last bits of the
        value would depend on the interpreter.  The reference solves the same
        total-M blocks, padded to 3x3 (a with 0, b with 1), one at a time."""
        rng = np.random.default_rng(29)
        for N in (3, 5, 7, 11):
            key = np.add.outer(np.arange(3), np.arange(N)).ravel()
            for _ in range(10):
                a, b = (to_density(random_state(Spin(2), Spin(N - 1), rng)) for _ in range(2))
                va, vb, overlaps = [], [], []
                for K in range(N + 2):
                    idx = np.flatnonzero(key == K)
                    ba, bb = np.zeros((3, 3)), np.eye(3)
                    ba[:len(idx), :len(idx)] = a.mat[np.ix_(idx, idx)]
                    bb[:len(idx), :len(idx)] = b.mat[np.ix_(idx, idx)]
                    lam, u = np.linalg.eigh(bb)
                    va += np.maximum(np.linalg.eigvalsh(ba), 0.0).tolist()
                    vb += np.maximum(lam, 0.0).tolist()
                    overlaps += ((u.T @ ba) * u.T).sum(axis=1).tolist()
                tr_a_ln_b = 0.0
                for lam, w in zip(vb, overlaps):
                    if w > 0.0:
                        tr_a_ln_b += w * math.log(lam)
                tr_a_ln_a = math.fsum(x * math.log(x) for x in va if x > 1e-12)
                assert quantum_relative_entropy(a, b) == max(tr_a_ln_a - tr_a_ln_b, 0.0)

    def test_support_violation(self):
        v = np.zeros((2, 2))
        v[0, 0] = 1.0
        w = np.zeros((2, 2))
        w[1, 1] = 1.0
        assert quantum_relative_entropy(DenseOperator(v), DenseOperator(w)) == math.inf

    @staticmethod
    def refusal_cases(bad):
        """(a, b, argument, path) with the bad matrix of unit trace as either argument,
        both 2(x)2 with dims (2, 2) and 0 off the total-M blocks, so that they take
        the blocked path, and both without dims, the whole-matrix path."""
        good = np.eye(4) / 4
        for dims, path in (((2, 2), (3, 2, 2)), (None, (1, 4, 4))):
            ops = DenseOperator(bad, dims=dims), DenseOperator(good, dims=dims)
            yield ops[0], ops[1], "first", path
            yield ops[1], ops[0], "second", path

    def test_rejects_non_psd(self):
        """The least eigenvalue, -0.25 in the 1x1 block of M = 1, is in the message."""
        bad = np.diag([-0.25, 0.5, 0.25, 0.5])
        for a, b, argument, path in self.refusal_cases(bad):
            assert states._diagonal_blocks(a, b)[0].shape == path
            with pytest.raises(ValueError, match=(
                    rf"^{argument} argument is not positive semidefinite \(min eig -0\.25\)$")):
                quantum_relative_entropy(a, b)
        # the first argument's refusals come before the second's
        skew = np.eye(4) / 4
        skew[1, 2] = 0.1
        with pytest.raises(ValueError, match="^first argument is not positive semidefinite"):
            quantum_relative_entropy(DenseOperator(bad), DenseOperator(skew))

    def test_rejects_mismatched_dimensions(self):
        half, third = DenseOperator(np.eye(2) / 2), DenseOperator(np.eye(3) / 3)
        with pytest.raises(ValueError, match="^operators must have equal dimension$"):
            quantum_relative_entropy(half, third)
        with pytest.raises(ValueError, match="^operator dimension 3 does not match"):
            alpha_coords(third, Spin(1), Spin(1))

    def test_rejects_non_hermitian(self):
        """An entry 0.1 without its transpose, inside the block {1, 2} of M = 0."""
        bad = np.eye(4) / 4
        bad[1, 2] = 0.1
        for a, b, argument, path in self.refusal_cases(bad):
            assert states._diagonal_blocks(a, b)[0].shape == path
            with pytest.raises(ValueError, match=rf"^{argument} argument is not Hermitian$"):
                quantum_relative_entropy(a, b)
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="^first argument is not Hermitian$"):
            quantum_relative_entropy(DenseOperator(m), DenseOperator(np.diag([1.5, -0.5])))

    @pytest.mark.parametrize("entries", [
        {(0, 0): math.nan}, {(1, 2): math.nan, (2, 1): math.nan},
        {(3, 3): math.inf}, {(3, 3): -math.inf}, {(1, 2): math.inf, (2, 1): math.inf}],
        ids=["nan diagonal", "nan off-diagonal pair", "inf diagonal", "-inf diagonal",
             "inf off-diagonal pair"])
    def test_rejects_non_finite(self, entries):
        """Refused by name, before any arithmetic on it could warn (tier-1 turns numpy
        RuntimeWarnings into errors); every entry lies inside a total-M block."""
        bad = np.eye(4) / 4
        for index, value in entries.items():
            bad[index] = value
        for a, b, argument, path in self.refusal_cases(bad):
            assert states._diagonal_blocks(a, b)[0].shape == path
            with pytest.raises(ValueError, match=rf"^{argument} argument has a non-finite entry$"):
                quantum_relative_entropy(a, b)

    def test_rejects_non_finite_whole_operands(self):
        """All-NaN and NaN-paired 2x2 operands against I/2 gave 0.0, complex ones too."""
        half = DenseOperator(np.eye(2) / 2)
        for m in (np.full((2, 2), math.nan), np.array([[0.5, math.nan], [math.nan, 0.5]]),
                  np.array([[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]])):
            with pytest.raises(ValueError, match="^first argument has a non-finite entry$"):
                quantum_relative_entropy(DenseOperator(m), half)
            with pytest.raises(ValueError, match="^second argument has a non-finite entry$"):
                quantum_relative_entropy(half, DenseOperator(m))

    def test_first_argument_refused_before_a_non_finite_second(self):
        nan = np.eye(4) / 4
        nan[0, 0] = math.nan
        skew = np.eye(4) / 4
        skew[1, 2] = 0.1
        for dims in ((2, 2), None):
            def op(m):
                return DenseOperator(m, dims=dims)
            for first, message in ((np.diag([-0.25, 0.5, 0.25, 0.5]), "not positive semidefinite"),
                                   (skew, "not Hermitian")):
                with pytest.raises(ValueError, match=f"^first argument is {message}"):
                    quantum_relative_entropy(op(first), op(nan))
            with pytest.raises(ValueError, match="^first argument has a non-finite entry$"):
                quantum_relative_entropy(op(nan), op(skew))

    def test_unchanged_by_a_complex_unitary(self):
        """Conjugating both arguments by one unitary leaves S(a||b) unchanged;
        the conjugated matrices are complex, so this runs the complex path."""
        rng = np.random.default_rng(17)
        for j1, j2 in SPIN_PAIRS:
            a, b = (to_density(random_state(j1, j2, rng)) for _ in range(2))
            dim = a.dim
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(z)
            ua, ub = (DenseOperator(u @ op.mat @ u.conj().T) for op in (a, b))
            assert ua.mat.dtype == np.complex128
            assert quantum_relative_entropy(ua, ub) == pytest.approx(
                quantum_relative_entropy(a, b), abs=1e-12)

    def test_matches_closed_form_in_every_region_3x11(self):
        """S(rho || sigma*) of the dense matrices equals the closed-form value
        for states of every region of 3(x)11, sigma* the closed-form minimizer."""
        N, j1, j2 = 11, Spin(2), Spin(10)
        u = np.sort(np.random.default_rng(11).random((4000, 2)), axis=1)
        per_region = {}
        for x, y in zip(u[:, 0], u[:, 1] - u[:, 0]):
            coords = NormalizedCoords(x, y)
            per_region.setdefault(classify_region(N, coords), []).append(coords)
        assert set(per_region) == {Region.SEPARABLE, Region.POLY_APRIME_FCE,
                                   Region.POLY_APRIME_HBF, Region.TRI_APRIME_DH}
        for coords_list in per_region.values():
            for coords in coords_list[:4]:
                state = normalized_to_raw(N, coords)
                res = ree_dispatch(j1, j2, state.alphas())
                dense = quantum_relative_entropy(to_density(state),
                                                 to_density(RIState(res.minimizer)))
                assert dense == pytest.approx(res.value, abs=1e-12)


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
        (2, "need integer N >= 3, got 2"), (5.0, "need integer N >= 3, got 5.0"),
        (np.int64(2), f"need integer N >= 3, got {np.int64(2)!r}"),
        ("5", "need integer N >= 3, got '5'"), (-1, "need integer N >= 3, got -1")],
        ids=["2", "5.0", "np.int64(2)", "'5'", "-1"])
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

    @pytest.mark.parametrize("lo, mid", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.1)])
    def test_non_finite_rejected(self, lo, mid):
        with pytest.raises(ValueError, match="^non-finite coordinates$"):
            NormalizedCoords(lo, mid)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            raw_to_normalized(maximally_mixed(Spin(1), Spin(1)))
        with pytest.raises(ValueError, match=r"^not a 2\(x\)N state$"):
            p_of_state(maximally_mixed(Spin(2), Spin(2)))


def _coords_state(N, lo, mid):
    """A 3(x)N state of the barycentric point (lo, mid) stored as given, unchecked."""
    pre = states._prefactors(N)
    vec = AlphaVector._unchecked(Spin(2), Spin(N - 1),
                                 (pre[0] * lo, pre[1] * mid, pre[2] * (1.0 - lo - mid)))
    return RIState(vec)


def _coords_instances():
    """(label, NormalizedCoords) made by the constructor, also within NORM_TOL outside
    the simplex, and by raw_to_normalized, by its stores and through the constructor."""
    out = [(f"NormalizedCoords({x!r}, {y!r})", NormalizedCoords(x, y))
           for x, y in ((0.2, 0.3), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.0, 0.5), (1, 0),
                        (-5e-11, 0.5), (0.25 + 5e-11, 0.75 + 5e-11), (np.float64(0.1), 0.6))]
    for N in (3, 7, 10**8 + 1):
        for x, y in ((0.2, 0.3), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
            state = normalized_to_raw(N, NormalizedCoords(x, y))
            out.append((f"raw_to_normalized {N} ({x}, {y})", raw_to_normalized(state)))
    over = _coords_state(7, 0.5, 0.5 + 5e-11)  # a sum above 1: through the constructor
    out.append(("raw_to_normalized, renormalized", raw_to_normalized(over)))
    return out


COORDS_INSTANCES = _coords_instances()


ABOVE = math.nextafter(1.0 + NORM_TOL, 2.0)  # the least float sum refused


def _hex(coords):
    return coords.ahat_lo.hex(), coords.ahat_mid.hex()


class TestNormalizedCoordsContract:
    """NormalizedCoords keeps the contract of a frozen dataclass, whether made by its own
    __init__ or by the stores of raw_to_normalized, and refuses in a fixed order."""

    def test_equals_a_constructed_instance(self):
        import dataclasses
        names = ["ahat_lo", "ahat_mid"]
        for label, obj in COORDS_INSTANCES:
            assert [f.name for f in dataclasses.fields(obj)] == names, label
            assert list(vars(obj)) == names, label
            assert all(type(v) is float for v in vars(obj).values()), label
            for made in (NormalizedCoords(obj.ahat_lo, obj.ahat_mid),
                         NormalizedCoords(ahat_mid=obj.ahat_mid, ahat_lo=obj.ahat_lo),
                         dataclasses.replace(obj)):
                assert obj == made and made == obj, label
                assert hash(obj) == hash(made) and repr(obj) == repr(made), label
                assert _hex(obj) == _hex(made) and list(vars(made)) == names, label
            moved = dataclasses.replace(obj, ahat_mid=0.0)
            assert _hex(moved) == _hex(NormalizedCoords(obj.ahat_lo, 0.0)), label
            assert dataclasses.astuple(obj) == (obj.ahat_lo, obj.ahat_mid), label
        assert repr(NormalizedCoords(0.2, 0.3)) == "NormalizedCoords(ahat_lo=0.2, ahat_mid=0.3)"
        assert NormalizedCoords(0.2, 0.3) != NormalizedCoords(0.2, 0.4)
        assert NormalizedCoords.__match_args__ == ("ahat_lo", "ahat_mid")

    def test_frozen_and_picklable(self):
        import dataclasses
        import pickle
        for label, obj in COORDS_INSTANCES:
            for name in ("ahat_lo", "ahat_mid"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, 0.5)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, name)
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is NormalizedCoords, label
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj), label
            assert list(vars(back)) == list(vars(obj)) and _hex(back) == _hex(obj), label

    @pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython object layout")
    def test_compact_instance_layout(self):
        """The hand-written __init__ and raw_to_normalized's stores take no more memory
        per instance than a generated frozen __init__: no materialized __dict__."""
        import dataclasses
        import tracemalloc

        @dataclasses.dataclass(frozen=True)
        class TwoFields:
            ahat_lo: float
            ahat_mid: float

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

        assert bytes_each(lambda: NormalizedCoords(0.2, 0.3)) <= bytes_each(
            lambda: TwoFields(0.2, 0.3)) + 4
        # raw_to_normalized makes two new floats per call, as does its reference
        state = normalized_to_raw(7, NormalizedCoords(0.2, 0.3))
        pre, a = states._prefactors(7), state.coeffs.alphas
        assert bytes_each(lambda: raw_to_normalized(state)) <= bytes_each(
            lambda: TwoFields(a[0] / pre[0], a[1] / pre[1])) + 4

    @pytest.mark.parametrize("lo, mid, message", [
        (math.nan, 0.5, "non-finite coordinates"),
        (0.5, math.nan, "non-finite coordinates"),
        (math.inf, 0.5, "non-finite coordinates"),
        (0.5, -math.inf, "non-finite coordinates"),
        (math.nan, -2e-10, "non-finite coordinates"),  # before the simplex
        (-math.inf, 2.0, "non-finite coordinates"),
        (-2e-10, 0.5, "coordinates (-2e-10, 0.5) outside the unit simplex"),
        (0.5, -2e-10, "coordinates (0.5, -2e-10) outside the unit simplex"),
        (0.5, 0.5 + 2e-10, "coordinates (0.5, 0.5000000002) outside the unit simplex"),
        (1.0, ABOVE - 1.0, f"coordinates (1.0, {ABOVE - 1.0}) outside the unit simplex"),
        (-2e-10, 1.5, "coordinates (-2e-10, 1.5) outside the unit simplex"),
        (True, "0.5", "coordinates (1.0, 0.5) outside the unit simplex"),  # floated first
    ])
    def test_refusals_in_order(self, lo, mid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NormalizedCoords(lo, mid)

    @pytest.mark.parametrize("lo, mid, stored", [
        (-5e-11, 0.5, (0.0, 0.5)),  # clamped inside NORM_TOL
        (0.5, -1e-10, (0.5, 0.0)),  # at -NORM_TOL
        (-0.0, 0.25, (-0.0, 0.25)),  # max(-0.0, 0.0) is -0.0
        (1.0, 1e-17, (1.0, 1e-17)),  # the sum rounds to 1: no division
    ])
    def test_clamped_inside_norm_tol(self, lo, mid, stored):
        assert _hex(NormalizedCoords(lo, mid)) == tuple(v.hex() for v in stored)

    @pytest.mark.parametrize("lo, mid", [
        (0.5, 0.5 + 5e-11), (0.25 + 5e-11, 0.75 + 5e-11), (1.0, 1e-10),
        (1.0, 1e-10 + 2e-26),  # the float sum is 1 + NORM_TOL: accepted
        (-5e-11, 1.0 + 1.4e-10),  # judged before the clamp: its sum is 1 + 9e-11
        (1.0 + 5e-11, 0.0)])
    def test_renormalized_for_a_sum_just_above_one(self, lo, mid):
        x, y = (0.0 if lo < 0.0 else lo), (0.0 if mid < 0.0 else mid)
        assert 1.0 < x + y and lo + mid <= 1.0 + NORM_TOL
        c = NormalizedCoords(lo, mid)
        assert _hex(c) == ((x / (x + y)).hex(), (y / (x + y)).hex())
        assert c.ahat_lo + c.ahat_mid <= 1.0 + 2.0 ** -52 and c.ahat_hi >= 0.0

    def test_raw_to_normalized_is_the_constructor_bit_for_bit(self):
        rng = np.random.default_rng(22)
        cases = [(N, *rng.dirichlet(np.ones(3))[:2]) for N in (3, 4, 7, 101, 10**8 + 1)
                 for _ in range(40)]
        cases += [(7, 0.5, 0.5 + 5e-11), (7, 1.0, 0.0), (7, 0.0, 1.0), (5, 0.0, 0.0),
                  (9, 0.3, 0.7), (9, 1.0 + 5e-11, 0.0)]
        by_stores = 0
        for N, x, y in cases:
            state = _coords_state(N, float(x), float(y))
            pre, a = states._prefactors(N), state.coeffs.alphas
            lo, mid = a[0] / pre[0], a[1] / pre[1]
            by_stores += lo + mid <= 1.0
            assert _hex(raw_to_normalized(state)) == _hex(NormalizedCoords(lo, mid)), (N, x, y)
        assert 0 < by_stores < len(cases)
        # a validated -0.0 coefficient keeps its sign, as the constructor's clamp does
        zero = make_ri_state(Spin(2), Spin(6), (-0.0, math.sqrt(3.0), 0.0))
        assert raw_to_normalized(zero).ahat_lo.hex() == (-0.0).hex()

    def test_raw_to_normalized_refuses_through_the_constructor(self):
        outside = r"^coordinates \(0\.6, 0\.6\) outside the unit simplex$"
        with pytest.raises(ValueError, match=outside):
            raw_to_normalized(_coords_state(7, 0.6, 0.6))
        with pytest.raises(ValueError, match=r"^normalized coordinates are defined only for 3"):
            raw_to_normalized(maximally_mixed(Spin(1), Spin(2)))
