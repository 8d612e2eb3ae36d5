"""Tests for the angular-momentum coupling machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ri_entropy.angular import (
    DenseOperator,
    Spin,
    _m_blocks,
    _projector_stacks,
    clebsch_gordan,
    coupled_basis_vector,
    coupling_range,
    partial_time_reversal,
    projector,
    rotation_y_pi,
)
from ri_entropy.oracle import _reversal_map
from ri_entropy.states import _density_scales

HALF = Fraction(1, 2)


def spin_matrices(j: Spin):
    """Dense (Jx, Jy, Jz) for one spin from the ladder operators."""
    ms = [tm / 2 for tm in j.twice_m_values()]
    dim = j.dim
    jz = np.diag(ms).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        m = ms[k]  # J+ |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>
        jp[k - 1, k] = math.sqrt(j.j * (j.j + 1) - m * (m + 1))
    jm = jp.conj().T
    return (jp + jm) / 2, (jp - jm) / 2j, jz


def total_j_squared(j1: Spin, j2: Spin) -> np.ndarray:
    ops1, ops2 = spin_matrices(j1), spin_matrices(j2)
    total = np.zeros((j1.dim * j2.dim,) * 2, dtype=complex)
    for a, b in zip(ops1, ops2):
        t = np.kron(a, np.eye(j2.dim)) + np.kron(np.eye(j1.dim), b)
        total += t @ t
    return total


class TestSpin:
    def test_of_and_properties(self):
        s = Spin.of(1.5)
        assert s.twice_j == 3 and s.dim == 4 and s.j == 1.5

    def test_of_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            Spin.of(0.3)

    @pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan])
    def test_of_refuses_non_finite_floats_as_unparsable(self, j):
        with pytest.raises(ValueError, match=rf"^cannot parse spin {j!r}$"):
            Spin.of(j)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Spin(-1)

    def test_m_values_descending(self):
        assert list(Spin(3).twice_m_values()) == [3, 1, -1, -3]


class TestClebschGordan:
    def test_singlet_component(self):
        got = clebsch_gordan(Spin(1), HALF, Spin(1), -HALF, Spin(0), 0)
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_stretched_state(self):
        for j1, j2 in [(Spin(1), Spin(1)), (Spin(2), Spin(3)), (Spin(4), Spin(4))]:
            J = Spin(j1.twice_j + j2.twice_j)
            got = clebsch_gordan(j1, j1.j, j2, j2.j, J, J.j)
            assert got == pytest.approx(1.0, abs=1e-15)

    def test_selection_rule(self):
        assert clebsch_gordan(Spin(1), HALF, Spin(1), HALF, Spin(2), 0) == 0.0

    def test_out_of_range_total_spin(self):
        assert clebsch_gordan(Spin(1), HALF, Spin(1), HALF, Spin(4), 2) == 0.0
        # M = m1 + m2, so only the coupling range rules out J above j1 + j2 or below |j1 - j2|
        assert clebsch_gordan(Spin(1), HALF, Spin(1), HALF, Spin(4), 1) == 0.0
        assert clebsch_gordan(Spin(4), 0, Spin(1), HALF, Spin(1), HALF) == 0.0

    def test_invalid_magnetic_number(self):
        with pytest.raises(ValueError):
            clebsch_gordan(Spin(1), Fraction(3, 2), Spin(1), -HALF, Spin(2), 1)
        with pytest.raises(ValueError):
            clebsch_gordan(Spin(2), HALF, Spin(2), 0, Spin(2), HALF)

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (1, 3), (2, 2), (2, 4),
                                         (3, 3), (4, 4), (3, 5), (2, 8)])
    def test_orthonormality(self, tj1, tj2):
        j1, j2 = Spin(tj1), Spin(tj2)
        Js = coupling_range(j1, j2)
        vecs = [coupled_basis_vector(j1, j2, J, Fraction(tM, 2))
                for J in Js for tM in J.twice_m_values()]
        gram = np.array([[u @ v for v in vecs] for u in vecs])
        assert np.abs(gram - np.eye(len(vecs))).max() < 1e-12

    @pytest.mark.parametrize("tj1,tj2", [(1, 1), (2, 2), (1, 4), (3, 5)])
    def test_matches_total_j_squared_diagonalization(self, tj1, tj2):
        """P_J from CG coefficients equals the eigenprojector of total J^2."""
        j1, j2 = Spin(tj1), Spin(tj2)
        Jsq = total_j_squared(j1, j2)
        for J in coupling_range(j1, j2):
            P = projector(j1, j2, J).mat
            # eigenprojector via the resolvent product over the other eigenvalues
            Q = np.eye(j1.dim * j2.dim, dtype=complex)
            for K in coupling_range(j1, j2):
                if K != J:
                    lam_k = K.j * (K.j + 1)
                    lam_j = J.j * (J.j + 1)
                    Q = Q @ (Jsq - lam_k * np.eye(len(Jsq))) / (lam_j - lam_k)
            assert np.abs(P - Q).max() < 1e-10


class TestCoupledBasisVector:
    def test_singlet_vector(self):
        v = coupled_basis_vector(Spin(1), Spin(1), Spin(0), 0)
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert np.allclose(v, expected, atol=1e-15)

    def test_stretched_vector(self):
        v = coupled_basis_vector(Spin(1), Spin(1), Spin(2), 1)
        assert np.allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_unit_norm(self):
        for J in coupling_range(Spin(2), Spin(3)):
            for tM in J.twice_m_values():
                v = coupled_basis_vector(Spin(2), Spin(3), J, Fraction(tM, 2))
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_total_spin(self):
        with pytest.raises(ValueError):
            coupled_basis_vector(Spin(1), Spin(1), Spin(4), 0)


class TestProjector:
    def test_trace(self):
        assert np.trace(projector(Spin(1), Spin(1), Spin(0)).mat).real == pytest.approx(1.0)
        assert np.trace(projector(Spin(2), Spin(4), Spin(2)).mat).real == pytest.approx(3.0)

    def test_idempotent_hermitian(self):
        P = projector(Spin(2), Spin(3), Spin(3)).mat
        assert np.abs(P @ P - P).max() < 1e-12
        assert np.abs(P - P.conj().T).max() < 1e-14

    def test_orthogonality(self):
        P1 = projector(Spin(2), Spin(4), Spin(2)).mat
        P2 = projector(Spin(2), Spin(4), Spin(4)).mat
        assert np.abs(P1 @ P2).max() < 1e-12

    def test_completeness(self):
        j1, j2 = Spin(2), Spin(4)
        total = sum(projector(j1, j2, J).mat for J in coupling_range(j1, j2))
        assert np.abs(total - np.eye(j1.dim * j2.dim)).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            projector(Spin(1), Spin(1), Spin(3))

    @pytest.mark.parametrize("tj1, tj2", [(1, 3), (2, 2), (2, 5)])
    def test_cached_read_only_sum_of_coupled_vectors(self, tj1, tj2):
        j1, j2 = Spin(tj1), Spin(tj2)
        for J in coupling_range(j1, j2):
            P = projector(j1, j2, J)
            vecs = [coupled_basis_vector(j1, j2, J, Fraction(tM, 2))
                    for tM in J.twice_m_values()]
            assert not P.mat.flags.writeable
            assert P.dims == (j1.dim, j2.dim)
            np.testing.assert_array_equal(P.mat, sum(np.outer(v, v) for v in vecs))
            assert projector(j1, j2, J) is P


class TestProjectorStacks:
    @pytest.mark.parametrize("tj1, tj2", [(1, 3), (2, 2), (2, 10)])
    def test_rows_are_the_cached_projectors_and_their_images(self, tj1, tj2):
        j1, j2 = Spin(tj1), Spin(tj2)
        stack, images = _projector_stacks(tj1, tj2)
        Ps = [projector(j1, j2, J) for J in coupling_range(j1, j2)]
        assert stack.shape == images.shape == (len(Ps), (j1.dim * j2.dim) ** 2)
        for P, row, image in zip(Ps, stack, images):
            np.testing.assert_array_equal(row, P.mat.ravel())
            np.testing.assert_array_equal(image, partial_time_reversal(P).mat.ravel())
        # the stacks copy the projectors, which stay the shared cached objects
        assert all(projector(j1, j2, J) is P for J, P in zip(coupling_range(j1, j2), Ps))

    def test_cached_and_read_only(self):
        stacks = _projector_stacks(2, 4)
        assert _projector_stacks(2, 4) is stacks
        for stack in stacks:
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0] = 1.0


class TestMBlocks:
    """The total-M block table: each on-block entry once, padding elsewhere."""

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (2, 2), (2, 11), (3, 3), (3, 11), (4, 2)])
    def test_blocks_cover_each_on_block_entry_once(self, n1, n2):
        take, pad, zero = _m_blocks(n1, n2)
        dim, nb, k = n1 * n2, n1 + n2 - 1, min(n1, n2)
        key = [i1 + i2 for i1 in range(n1) for i2 in range(n2)]
        assert take.shape == pad.shape == (nb, k, k)
        assert dim == 1 or key[zero // dim] != key[zero % dim]
        for K in range(nb):  # every index has one key, so the blocks partition the basis
            members = [i for i in range(dim) if key[i] == K]
            size = len(members)
            assert 1 <= size <= k
            expected = np.full((k, k), zero)
            expected[:size, :size] = np.add.outer(np.array(members) * dim, members)
            np.testing.assert_array_equal(take[K], expected)
            np.testing.assert_array_equal(pad[K], np.diag([0.0] * size + [1.0] * (k - size)))

    def test_cached_and_read_only(self):
        table = _m_blocks(3, 5)
        assert _m_blocks(3, 5) is table
        for arr in table[:2]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1


class TestReversalMap:
    """The partial time reversal of each P_J is a sum of the P_K, and
    `oracle._reversal_map` holds its coefficients; the largest residual seen is
    5.6e-16."""

    @pytest.mark.parametrize("tj1", [1, 2, 3])
    def test_sum_of_projectors_is_the_reversed_projector(self, tj1):
        for tj2 in range(1, 41):
            stack, images = _projector_stacks(tj1, tj2)
            # T[K, J] = tr(P_K theta(P_J)) / (2K+1), the map without its state scale
            coeffs = _reversal_map(tj1, tj2) * _density_scales(tj1, tj2)
            assert coeffs.shape == (len(stack), len(stack))
            assert np.abs(coeffs.T @ stack - images).max() <= 1e-14

    def test_cached_and_read_only(self):
        arr = _reversal_map(2, 4)
        assert _reversal_map(2, 4) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


class TestRotationYPi:
    def test_half_spin_matrix(self):
        V = rotation_y_pi(Spin(1)).mat
        assert np.allclose(V.real, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_matches_generator_exponential(self):
        for tj in (1, 2, 3, 4):
            j = Spin(tj)
            _, jy, _ = spin_matrices(j)
            vals, vecs = np.linalg.eigh(jy)
            expm = vecs @ np.diag(np.exp(-1j * math.pi * vals)) @ vecs.conj().T
            V = rotation_y_pi(j).mat
            assert np.abs(V - expm).max() < 1e-12

    def test_orthogonal_and_squares_to_parity(self):
        for tj in range(0, 7):
            V = rotation_y_pi(Spin(tj)).mat
            assert np.abs(V.imag).max() == 0.0
            assert np.abs(V @ V.conj().T - np.eye(tj + 1)).max() < 1e-15
            assert np.abs(V @ V - (-1.0) ** tj * np.eye(tj + 1)).max() < 1e-15

    def test_spin1_maps_extremal_states(self):
        V = rotation_y_pi(Spin(2)).mat
        e_up = np.array([1.0, 0.0, 0.0])
        assert abs(abs(V @ e_up @ np.array([0.0, 0.0, 1.0])) - 1.0) < 1e-15


class TestPartialTimeReversal:
    def test_identity_fixed(self):
        I = DenseOperator(np.eye(6), dims=(2, 3))
        assert np.abs(partial_time_reversal(I).mat - np.eye(6)).max() < 1e-15

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        herm = (m + m.conj().T) / 2
        out = partial_time_reversal(DenseOperator(herm, dims=(3, 4))).mat
        assert np.trace(out) == pytest.approx(np.trace(herm), abs=1e-12)
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_involutive(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        op = DenseOperator(m, dims=(2, 4))
        twice = partial_time_reversal(partial_time_reversal(op)).mat
        assert np.abs(twice - m).max() < 1e-12

    def test_requires_factor_dims(self):
        with pytest.raises(ValueError):
            partial_time_reversal(DenseOperator(np.eye(4)))

    def test_sign_convention_of_v_is_irrelevant(self):
        """Conjugating with V or -V gives exactly the map computed."""
        rng = np.random.default_rng(7)
        for n1, n2 in ((3, 3), (2, 2), (2, 5), (3, 4), (3, 11), (4, 3)):
            dim = n1 * n2
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            V = rotation_y_pi(Spin(n2 - 1)).mat
            pt = m.reshape(n1, n2, n1, n2).transpose(0, 3, 2, 1).reshape(dim, dim)
            out = partial_time_reversal(DenseOperator(m, dims=(n1, n2))).mat
            for sign in (1.0, -1.0):
                IV = np.kron(np.eye(n1), sign * V)
                assert np.array_equal(IV @ pt @ IV.conj().T, out), (n1, n2, sign)


class TestDenseOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DenseOperator(np.zeros((2, 3)))

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            DenseOperator(np.eye(6), dims=(2, 2))

    def test_matrix_is_immutable(self):
        op = DenseOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_real_input_stays_real_and_complex_stays_complex(self):
        assert DenseOperator(np.eye(3)).mat.dtype == np.float64
        assert DenseOperator([[1, 0], [0, 1]]).mat.dtype == np.float64
        assert DenseOperator(np.eye(3, dtype=np.float32)).mat.dtype == np.float64
        assert DenseOperator(np.eye(3, dtype=complex)).mat.dtype == np.complex128
        assert DenseOperator(np.eye(3, dtype=np.complex64)).mat.dtype == np.complex128

    def test_matrix_is_a_copy(self):
        m = np.eye(2)
        op = DenseOperator(m)
        m[0, 0] = 5.0
        assert op.mat[0, 0] == 1.0

    def test_projectors_and_their_images_are_real(self):
        P = projector(Spin(2), Spin(4), Spin(2))
        assert P.mat.dtype == np.float64
        assert rotation_y_pi(Spin(3)).mat.dtype == np.float64
        assert partial_time_reversal(P).mat.dtype == np.float64
