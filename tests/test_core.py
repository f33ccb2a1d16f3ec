import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

import qfisher as qf
from qfisher.core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_TOL,
    InvariantError,
    _check_density_stack,
    _check_pure_stack,
)


def is_close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def kron_spin_sum(dirs):
    """sum_l (1/2) sigma_(n_l)^(l) from explicit Kronecker products."""
    n = len(dirs)
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for l, v in enumerate(dirs):
        sigma = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
        ref += 0.5 * reduce(np.kron, [np.eye(2**l), sigma, np.eye(2 ** (n - 1 - l))])
    return ref


class TestMakePure:
    def test_basis_state(self):
        psi = qf.make_pure(1, [1, 0])
        assert np.allclose(psi.amplitudes, [1, 0])

    def test_bell_normalized(self):
        psi = qf.make_pure(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert is_close(np.sum(np.abs(psi.amplitudes) ** 2), 1.0)

    def test_renormalizes(self):
        psi = qf.make_pure(3, [2, 0, 0, 0, 0, 0, 0, 2])
        assert np.allclose(psi.amplitudes, qf.ghz(3).amplitudes)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvariantError):
            qf.make_pure(1, [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvariantError):
            qf.make_pure(2, [1, 0, 0])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(InvariantError):
            qf.PureState(1, np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        psi = qf.make_pure(1, [1, 0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityFromPure:
    def test_basis_projector(self):
        rho = qf.density_from_pure(qf.make_pure(1, [1, 0]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_bell_corners(self):
        rho = qf.density_from_pure(qf.ghz(2))
        assert is_close(rho.matrix[0, 3].real, 0.5, 1e-12)
        assert is_close(rho.matrix[0, 0].real, 0.5, 1e-12)

    def test_rank_one_purity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = qf.make_pure(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            rho = qf.density_from_pure(psi)
            assert is_close(np.trace(rho.matrix @ rho.matrix).real, 1.0, 1e-10)

    def test_invalid_density_rejected(self):
        with pytest.raises(InvariantError):
            qf.DensityMatrix(1, np.array([[0.7, 0.0], [0.0, 0.7]]))
        with pytest.raises(InvariantError):
            qf.DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
        with pytest.raises(InvariantError):
            qf.DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_single_matrix_messages_name_no_sample(self):
        with pytest.raises(InvariantError, match=r"^trace is 1.4, expected 1$"):
            qf.DensityMatrix(1, np.array([[0.7, 0.0], [0.0, 0.7]]))
        with pytest.raises(InvariantError, match=r"^smallest eigenvalue -0.5 below -1e-09$"):
            qf.DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
        with pytest.raises(InvariantError, match=r"^density matrix is not Hermitian within 1e-10$"):
            qf.DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestStackValidators:
    @staticmethod
    def _stack():
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        rhos = g @ g.conj().swapaxes(-1, -2)
        return rhos / np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]

    def test_valid_stack_returns_its_hermitian_part(self):
        rhos = self._stack()
        out = _check_density_stack(rhos)
        assert np.array_equal(out, (rhos + rhos.conj().swapaxes(-1, -2)) / 2)
        for rho, mat in zip(rhos, out):
            assert np.array_equal(qf.DensityMatrix(2, rho).matrix, mat)

    def test_non_hermitian_matrix_named(self):
        rhos = self._stack()
        rhos[4, 0, 1] += 1e-6
        with pytest.raises(InvariantError, match=r"^sample 4: density matrix is not Hermitian"):
            _check_density_stack(rhos)

    def test_non_unit_trace_matrix_named(self):
        rhos = self._stack()
        rhos[2] *= 1.5
        with pytest.raises(InvariantError, match=r"^sample 2: trace is 1.5\d*, expected 1$"):
            _check_density_stack(rhos)

    def test_non_psd_matrix_named(self):
        rhos = self._stack()
        rhos[5] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvariantError, match=r"^sample 5: smallest eigenvalue -0.5 below -1e-09$"):
            _check_density_stack(rhos)

    def test_grid_index_and_pure_norm(self):
        rhos = self._stack().reshape(2, 3, 4, 4)
        rhos[1, 0] *= 2.0
        with pytest.raises(InvariantError, match=r"^sample \(1, 0\): trace is "):
            _check_density_stack(rhos)
        amps = np.full((4, 8), 8**-0.5, dtype=complex)
        amps[3, 0] = 0.0
        with pytest.raises(InvariantError, match=r"^sample 3: state not normalized: sum \|a\|\^2 = 0.875"):
            _check_pure_stack(amps)
        _check_pure_stack(amps[:3])


class TestNonFiniteEntries:
    """A NaN or inf entry fails the validators, in a real or a complex matrix."""

    @staticmethod
    def _base(imaginary_part):
        return np.array([[0.5, 0.25j], [-0.25j, 0.5]]) if imaginary_part else np.eye(2, dtype=complex) / 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary_part", [False, True])
    def test_density_matrix(self, value, imaginary_part):
        for where in [(0, 1), (1, 1)]:
            for part in ("real", "imag"):
                mat = self._base(imaginary_part)
                getattr(mat, part)[where] = value
                with pytest.raises(InvariantError, match=r"^density matrix has a non-finite entry$"):
                    qf.DensityMatrix(1, mat)
                if not mat.imag.any():
                    with pytest.raises(InvariantError, match=r"^density matrix has a non-finite entry$"):
                        qf.DensityMatrix(1, mat.real)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("imaginary_part", [False, True])
    def test_stack_names_the_sample(self, value, imaginary_part):
        rhos = np.stack([self._base(imaginary_part)] * 4)
        rhos[2, 1, 0] = value
        with pytest.raises(InvariantError, match=r"^sample 2: density matrix has a non-finite entry$"):
            _check_density_stack(rhos)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.nan])
    def test_pure(self, value):
        for amps in ([0.6, 0.8], [0.6, 0.8j]):
            amps = np.array(amps, dtype=complex)
            amps[1] = value
            with pytest.raises(InvariantError, match=r"^state not normalized"):
                qf.PureState(1, amps)
            stack = np.tile(np.array([0.6, 0.8j]), (3, 1))
            stack[1] = amps
            with pytest.raises(InvariantError, match=r"^sample 1: state not normalized"):
                _check_pure_stack(stack)

    def test_operator_and_povm(self):
        for value in (np.nan, np.inf, -np.inf):
            for mat in (np.diag([value, 1.0]), np.array([[1.0, value], [0.0, 1.0]])):
                with pytest.raises(InvariantError, match=r"^operator has a non-finite entry$"):
                    qf.HermitianOperator(mat)
        with pytest.raises(InvariantError, match="do not sum to the identity"):
            qf.Povm((np.diag([np.nan, 0.5]), np.diag([0.5, 0.5])))


class TestRealArithmetic:
    """A stack with no imaginary part is validated by real LAPACK; the
    result is the same complex Hermitian part as on the complex path."""

    @staticmethod
    def _real_stack(b=6, d=8, seed=5):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((b, d, d))
        rhos = g @ g.swapaxes(-1, -2)
        return rhos / np.trace(rhos, axis1=-2, axis2=-1)[:, None, None]

    def test_hermitian_part_is_complex_and_exact(self, linalg_dtypes):
        seen = linalg_dtypes("cholesky", "eigvalsh")
        rhos = self._real_stack()
        for stack in (rhos, rhos.astype(complex)):
            out = _check_density_stack(stack)
            assert out.dtype == complex and not out.imag.any()
            assert np.array_equal(out.real, (rhos + rhos.swapaxes(-1, -2)) / 2)
        assert seen == {"cholesky": [np.float64, np.float64], "eigvalsh": []}

    def test_complex_stack_stays_complex(self, linalg_dtypes):
        seen = linalg_dtypes("cholesky")
        _check_density_stack(TestStackValidators._stack())
        qf.duer_state(4, phi=0.3)
        assert seen["cholesky"] == [np.complex128, np.complex128]

    def test_real_non_psd_matrix_named(self, linalg_dtypes):
        seen = linalg_dtypes("cholesky", "eigvalsh")
        rhos = self._real_stack(d=4)
        rhos[5] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvariantError, match=r"^sample 5: smallest eigenvalue -0.5 below -1e-09$"):
            _check_density_stack(rhos.astype(complex))
        assert seen == {"cholesky": [np.float64], "eigvalsh": [np.float64]}

    def test_is_ppt_real_stack_matches_complex_reference(self, linalg_dtypes):
        # white noise over real states at weights from 0 to 1: PPT and NPT members
        rng = np.random.default_rng(6)
        a = rng.standard_normal((16, 8, 2))
        rhos = a @ a.swapaxes(-1, -2)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        weights = np.linspace(0.0, 1.0, 16)[:, None, None]
        rhos = (weights * rhos + (1 - weights) * np.eye(8) / 8).astype(complex)
        reference = [np.linalg.eigvalsh(qf.partial_transpose(rhos, [q]))[:, 0] >= -1e-9 for q in range(3)]
        assert {True, False} <= set(np.concatenate(reference).tolist())
        seen = linalg_dtypes("eigvalsh")
        for q in range(3):
            assert np.array_equal(qf.is_ppt(rhos, [q]), reference[q])
        qf.is_ppt(qf.duer_state(3, phi=0.3), [0])
        assert seen["eigvalsh"] == [np.float64] * 3 + [np.complex128]

    def test_real_construction_memory(self):
        # the real Hermitian part and its factor take 8 d^2 bytes each and the
        # complex result 16 d^2; a complex part and factor would take 2 x 16 d^2
        mat = np.array(qf.duer_state(8).matrix)
        d = mat.shape[0]
        tracemalloc.start()
        try:
            rho = qf.DensityMatrix(8, mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.matrix.dtype == complex and np.array_equal(rho.matrix, mat)
        assert peak <= 1.6 * 16 * d * d


class TestPsdBoundary:
    """Acceptance at the PSD tolerance: the smallest eigenvalue at -0.9 and
    -1.1 times ``PSD_TOL`` on either side of it, for one matrix and a stack."""

    @staticmethod
    def _with_smallest(lo, d=16, seed=0):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        evals = np.concatenate(([lo], rng.random(d - 1)))
        evals[1:] *= (1.0 - lo) / evals[1:].sum()
        return (q * evals) @ q.conj().T

    def test_single_matrix(self):
        inside = self._with_smallest(-0.9 * PSD_TOL)
        assert np.linalg.eigvalsh(inside)[0] < 0
        qf.DensityMatrix(4, inside)
        outside = self._with_smallest(-1.1 * PSD_TOL)
        with pytest.raises(InvariantError, match=r"^smallest eigenvalue -1\.\d+e-09 below -1e-09$"):
            qf.DensityMatrix(4, outside)

    def test_stack(self):
        rhos = np.stack([self._with_smallest(-0.9 * PSD_TOL, seed=s) for s in range(5)])
        assert np.array_equal(_check_density_stack(rhos), (rhos + rhos.conj().swapaxes(-1, -2)) / 2)
        rhos[3] = self._with_smallest(-1.1 * PSD_TOL, seed=3)
        with pytest.raises(InvariantError, match=r"^sample 3: smallest eigenvalue -1\.\d+e-09 below -1e-09$"):
            _check_density_stack(rhos)


class TestTensor:
    def test_pure_ordering(self):
        zero = qf.make_pure(1, [1, 0])
        one = qf.make_pure(1, [0, 1])
        out = qf.tensor(zero, one)
        assert np.argmax(np.abs(out.amplitudes)) == 1

    def test_bell_pair_support(self):
        out = qf.tensor(qf.ghz(2), qf.ghz(2))
        support = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
        assert list(support) == [0, 3, 12, 15]

    def test_operator_tensor_eigenvalues(self):
        z = qf.HermitianOperator(np.diag([1.0, -1.0]))
        eye = qf.HermitianOperator(np.eye(2))
        out = qf.tensor(z, eye)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out.matrix)), [-1, -1, 1, 1])

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            qf.tensor(qf.ghz(2), qf.density_from_pure(qf.ghz(2)))


class TestSpinOperators:
    def test_jz_two_qubits(self):
        jz = qf.collective_spin(2, "z")
        assert np.allclose(jz.matrix, np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_jx_three_qubit_spectrum(self):
        # independent construction by explicit kron sums
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        eye = np.eye(2)
        ref = 0.5 * (
            np.kron(np.kron(x, eye), eye)
            + np.kron(np.kron(eye, x), eye)
            + np.kron(np.kron(eye, eye), x)
        )
        jx = qf.collective_spin(3, "x")
        assert np.allclose(jx.matrix, ref)
        spectrum = np.sort(np.linalg.eigvalsh(jx.matrix))
        assert np.allclose(spectrum, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5])

    def test_jy_hermitian_and_commutator(self):
        jx = qf.collective_spin(2, "x").matrix
        jy = qf.collective_spin(2, "y").matrix
        jz = qf.collective_spin(2, "z").matrix
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz)

    def test_axis_z_direction(self):
        jn = qf.spin_along(3, (0, 0, 1))
        assert np.allclose(jn.matrix, qf.collective_spin(3, "z").matrix)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            qf.collective_spin(2, "q")

    def test_non_unit_direction(self):
        with pytest.raises(InvariantError):
            qf.spin_along(2, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_collective_spin_equals_kron_reference(self, n, axis):
        dirs = np.tile(np.eye(3)["xyz".index(axis)], (n, 1))
        assert np.array_equal(qf.collective_spin(n, axis).matrix, kron_spin_sum(dirs))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spin_along_matches_kron_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert np.max(np.abs(qf.spin_along(n, v).matrix - kron_spin_sum([v] * n))) <= 1e-14

    @pytest.mark.parametrize("n", [True, 0, 10**9])
    def test_bad_qubit_count_rejected(self, n):
        with pytest.raises(ValueError, match="qubit"):
            qf.collective_spin(n, "z")
        with pytest.raises(ValueError, match="qubit"):
            qf.spin_along(n, (0.0, 0.0, 1.0))


class TestLocalGenerator:
    def test_all_z_equals_collective(self):
        dirs = np.tile([0.0, 0.0, 1.0], (4, 1))
        h = qf.local_generator(dirs)
        assert np.allclose(h.matrix, qf.collective_spin(4, "z").matrix)

    def test_single_qubit_x(self):
        h = qf.local_generator([[1.0, 0.0, 0.0]])
        assert np.allclose(h.matrix, np.array([[0, 0.5], [0.5, 0]]))

    def test_eigenvalue_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dirs = rng.standard_normal((3, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            vals = np.linalg.eigvalsh(qf.local_generator(dirs).matrix)
            assert vals.min() >= -1.5 - 1e-9 and vals.max() <= 1.5 + 1e-9
            assert is_close(vals.max(), 1.5, 1e-9)  # product of top local states

    def test_direction_count_mismatch(self):
        with pytest.raises(ValueError):
            qf.local_generator(np.ones((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kron_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            dirs = rng.standard_normal((n, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            ref = np.zeros((2**n, 2**n), dtype=complex)
            for l, v in enumerate(dirs):
                sigma = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
                ref += 0.5 * reduce(np.kron, [np.eye(2**l), sigma, np.eye(2 ** (n - 1 - l))])
            assert np.array_equal(qf.local_generator(dirs).matrix, ref)


class TestPartialTranspose:
    def test_separable_is_ppt(self):
        psi = qf.tensor(qf.make_pure(1, [1, 0]), qf.make_pure(1, [0, 1]))
        rho = qf.density_from_pure(psi)
        assert qf.is_ppt(rho, [0])

    def test_bell_negative_eigenvalue(self):
        rho = qf.density_from_pure(qf.ghz(2))
        pt = qf.partial_transpose(rho, [0])
        assert is_close(np.linalg.eigvalsh(pt)[0], -0.5, 1e-12)
        assert not qf.is_ppt(rho, [0])

    def test_bound_entangled_family_is_ppt_everywhere(self):
        rho = qf.bound_entangled_ghz_diagonal(2.0, 3.0, 5.0)
        for q in range(3):
            assert qf.is_ppt(rho, [q])

    def test_involution_and_trace(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        pt = qf.partial_transpose(rho, [1])
        assert np.array_equal(qf.partial_transpose(pt, [1]), rho)
        assert np.trace(pt) == np.trace(rho)

    def test_stack_matches_per_matrix_loop(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 8, 8)) + 1j * rng.standard_normal((12, 8, 8))
        rhos = a @ a.conj().transpose(0, 2, 1)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        # white noise at weights from 0 to 1, so the stack holds PPT and NPT states
        weights = np.linspace(0.0, 1.0, 12)[:, None, None]
        rhos = weights * rhos + (1 - weights) * np.eye(8) / 8
        subsets = [list(c) for k in (1, 2) for c in combinations(range(3), k)]
        seen = set()
        for subset in subsets:
            pts = qf.partial_transpose(rhos, subset)
            flags = qf.is_ppt(rhos, subset)
            assert flags.dtype == bool and flags.shape == (12,)
            for rho, pt, flag in zip(rhos, pts, flags):
                assert np.array_equal(pt, qf.partial_transpose(rho, subset))
                assert flag == qf.is_ppt(rho, subset)
            seen.update(flags.tolist())
            grid = rhos.reshape(3, 4, 8, 8)
            assert np.array_equal(qf.partial_transpose(grid, subset), pts.reshape(3, 4, 8, 8))
            assert np.array_equal(qf.is_ppt(grid, subset), flags.reshape(3, 4))
        assert seen == {True, False}

    def test_single_matrix_gives_bool(self):
        assert type(qf.is_ppt(qf.density_from_pure(qf.ghz(2)), [0])) is bool
        assert type(qf.is_ppt(np.eye(4) / 4, [1])) is bool

    def test_stack_that_is_not_a_register(self):
        for shape in [(3, 6, 6), (3, 8, 4), (8,), (2, 1, 1)]:
            with pytest.raises(ValueError):
                qf.partial_transpose(np.zeros(shape), [0])
            with pytest.raises(ValueError):
                qf.is_ppt(np.zeros(shape), [0])

    def test_bad_subsets(self):
        rho = qf.density_from_pure(qf.ghz(2))
        with pytest.raises(ValueError):
            qf.partial_transpose(rho, [])
        with pytest.raises(ValueError):
            qf.partial_transpose(rho, [0, 1])
        with pytest.raises(ValueError):
            qf.partial_transpose(rho, [5])


class TestMixWithIdentity:
    def test_pure_limit(self):
        rho = qf.mix_with_identity(qf.ghz(2), 1.0)
        assert np.allclose(rho.matrix, qf.density_from_pure(qf.ghz(2)).matrix)

    def test_fully_mixed_limit(self):
        rho = qf.mix_with_identity(qf.ghz(3), 0.0)
        assert np.allclose(rho.matrix, np.eye(8) / 8)

    def test_half_ghz4_spectrum(self):
        rho = qf.mix_with_identity(qf.ghz(4), 0.5)
        vals = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(vals[:-1], np.full(15, 1 / 32), atol=1e-12)
        assert is_close(vals[-1], 0.5 + 1 / 32, 1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qf.mix_with_identity(qf.ghz(2), 1.5)


class TestExpectationVariance:
    def test_jz_on_ones(self):
        amps = qf.ones_state(4).amplitudes
        assert is_close(np.vdot(amps, qf.collective_spin(4, "z").matrix @ amps).real, -2.0)

    def test_ghz_jz_variance(self):
        for n in (2, 3, 5):
            var = qf.variance(qf.ghz(n), qf.collective_spin(n, "z"))
            assert is_close(var, n**2 / 4, 1e-10)

    def test_total_spin_on_symmetric_states(self):
        for state in (qf.ghz(4), qf.dicke(4, 1), qf.dicke(6, 3)):
            n, amps = state.num_qubits, state.amplitudes
            # <J_i^2> = |J_i psi|^2
            total = sum(np.linalg.norm(qf.collective_spin(n, ax).matrix @ amps) ** 2 for ax in "xyz")
            assert is_close(total, (n / 2) * (n / 2 + 1), 1e-9)

    def test_mixed_state_variance(self):
        rho = qf.mix_with_identity(qf.ghz(2), 0.5)
        jz = qf.collective_spin(2, "z").matrix
        second = np.trace(rho.matrix @ jz @ jz).real
        first = np.trace(rho.matrix @ jz).real
        assert is_close(qf.variance(rho, jz), second - first**2, 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qf.variance(qf.ghz(2), qf.collective_spin(3, "z"))
        with pytest.raises(ValueError):
            qf.variance(qf.density_from_pure(qf.ghz(2)), qf.collective_spin(3, "z"))

    def test_variance_additivity_on_products(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = qf.make_pure(1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
            b = qf.make_pure(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            dirs = rng.standard_normal((3, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            h_full = qf.local_generator(dirs)
            h_a = qf.local_generator(dirs[:1])
            h_b = qf.local_generator(dirs[1:])
            total = qf.variance(qf.tensor(a, b), h_full)
            parts = qf.variance(a, h_a) + qf.variance(b, h_b)
            assert abs(total - parts) <= 1e-9

    def test_local_variance_ceiling(self):
        rng = np.random.default_rng(5)
        n = 3
        for _ in range(1000):
            psi = qf.make_pure(n, rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
            dirs = rng.standard_normal((n, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            val = 4 * qf.variance(psi, qf.local_generator(dirs))
            assert val <= n**2 + 1e-9


class TestJsonRoundTrip:
    def test_pure_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        psi = qf.make_pure(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        path = tmp_path / "state.json"
        qf.save_state(psi, path)
        back = qf.load_state(path)
        assert isinstance(back, qf.PureState)
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_mixed_exact(self, tmp_path):
        rho = qf.mix_with_identity(qf.ghz(2), 0.37)
        path = tmp_path / "rho.json"
        qf.save_state(rho, path)
        back = qf.load_state(path)
        assert isinstance(back, qf.DensityMatrix)
        assert np.array_equal(back.matrix, rho.matrix)

    def test_schema_fields(self):
        data = qf.state_to_json(qf.ghz(2))
        assert set(data) == {"n", "kind", "re", "im"}
        assert data["n"] == 2 and data["kind"] == "pure"
        assert len(data["re"]) == 4

    def test_malformed_record(self):
        with pytest.raises(ValueError):
            qf.state_from_json({"n": 1, "kind": "pure"})
        with pytest.raises(ValueError):
            qf.state_from_json({"n": 1, "kind": "thing", "re": [1, 0], "im": [0, 0]})

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_qubit_cap_checked_before_reshape(self, kind):
        with pytest.raises(ValueError, match="40 qubits exceeds the dense-storage cap") as info:
            qf.state_from_json({"n": 40, "kind": kind, "re": [1.0], "im": [0.0]})
        assert not isinstance(info.value, InvariantError)

    @pytest.mark.parametrize("state", [qf.plus_state(2), qf.ones_state(1)], ids=["plus2", "ones1"])
    @pytest.mark.parametrize("n", [2.9, 2.0, 1.0, True, "2"])
    def test_qubit_count_must_be_a_json_integer(self, state, n):
        # "n": 2.9 used to load as 2 qubits and "n": true as 1
        for record in (qf.state_to_json(state), qf.state_to_json(qf.density_from_pure(state))):
            record["n"] = n
            with pytest.raises(ValueError, match=r"^number of qubits must be a positive integer, got") as info:
                qf.state_from_json(record)
            assert not isinstance(info.value, InvariantError)

    def test_mixed_record_of_wrong_length(self):
        with pytest.raises(InvariantError, match=r"^mixed record has 15 entries, expected 16$"):
            qf.state_from_json({"n": 2, "kind": "mixed", "re": [0.25] * 15, "im": [0.0] * 15})


class TestQubitCap:
    def test_cap_enforced_and_configurable(self):
        with pytest.raises(ValueError):
            qf.make_pure(13, np.zeros(2**13))
        qf.set_max_qubits(13)
        try:
            amps = np.zeros(2**13)
            amps[0] = 1.0
            assert qf.make_pure(13, amps).num_qubits == 13
        finally:
            qf.set_max_qubits(12)
