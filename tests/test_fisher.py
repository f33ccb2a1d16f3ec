import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

import qfisher as qf
from qfisher import fisher
from qfisher.core import PAULIS, InvariantError, _check_density_stack


def random_pure(rng, n):
    return qf.make_pure(n, rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))


def random_mixed(rng, n, rank=None):
    d = 2**n
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    return qf.DensityMatrix(n, rho / np.trace(rho))


def random_real_mixed(rng, n, rank):
    a = rng.standard_normal((2**n, rank))
    rho = a @ a.T
    return qf.DensityMatrix(n, rho / np.trace(rho))


def projective_povm(basis):
    """Projective POVM from the orthonormal columns of ``basis``."""
    return qf.Povm(tuple(np.outer(b, b.conj()) for b in basis.T))


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestQfi:
    def test_ghz_reaches_qubit_count_squared(self):
        for n in range(2, 9):
            rho = qf.density_from_pure(qf.ghz(n))
            assert abs(qf.qfi(rho, qf.collective_spin(n, "z")) - n**2) <= 1e-8

    def test_generator_eigenstate_carries_none(self):
        rho = qf.density_from_pure(qf.ones_state(3))
        assert abs(qf.qfi(rho, qf.collective_spin(3, "z"))) <= 1e-10

    def test_white_noise_scaling_of_ghz4(self):
        # closed-form scaling factor is the independent check on the
        # eigendecomposition route
        jz = qf.collective_spin(4, "z")
        for p in (0.3, 0.5, 0.9):
            got = qf.qfi(qf.mix_with_identity(qf.ghz(4), p), jz)
            assert abs(got - qf.white_noise_factor(p, 4) * 16.0) <= 1e-8

    def test_pure_state_reduction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = random_pure(rng, 3)
            h = qf.spin_along(3, random_direction(rng))
            mixed_path = qf.qfi(qf.density_from_pure(psi), h)
            assert abs(mixed_path - 4.0 * qf.variance(psi, h)) <= 1e-8
            assert abs(qf.qfi(psi, h) - 4.0 * qf.variance(psi, h)) <= 1e-12 * max(1.0, qf.qfi(psi, h))

    def test_rejects_a_bare_array(self):
        for call in (lambda a: qf.qfi(a, np.eye(2)), qf.qfi_matrix):
            with pytest.raises(TypeError, match="expected PureState or DensityMatrix"):
                call(np.eye(2) / 2)

    @pytest.mark.parametrize("entry, message", [((0, 3), "not Hermitian"), ((1, 1), "non-finite")])
    def test_raw_generator_checked_as_hermitian_operator(self, entry, message):
        # one entry above the diagonal alone, or a NaN: before the check, qfi
        # gave 1 or nan and model_probabilities read only the lower triangle
        g = np.zeros((4, 4))
        g[entry] = 1.0 if message == "not Hermitian" else np.nan
        psi, povm = qf.ghz(2), qf.parity_povm(2)
        calls = (
            lambda: qf.qfi(psi, g),
            lambda: qf.qfi(qf.density_from_pure(psi), g),
            lambda: qf.model_probabilities(psi, g, povm, [0.1]),
            lambda: qf.classical_fisher(psi, g, povm, 0.1),
            lambda: qf.run_phase_estimation(psi, g, povm, 0.1, m=10, trials=2, window=(0.0, 0.5)),
        )
        for call in calls:
            with pytest.raises(InvariantError, match=message):
                call()

    def test_dimension_mismatch(self):
        for state in (qf.ghz(2), qf.density_from_pure(qf.ghz(2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                qf.qfi(state, qf.collective_spin(3, "z"))

    def test_convexity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = random_mixed(rng, 2), random_mixed(rng, 2)
            h = qf.spin_along(2, random_direction(rng))
            p = rng.random()
            mix = qf.DensityMatrix(2, p * a.matrix + (1 - p) * b.matrix)
            assert qf.qfi(mix, h) <= p * qf.qfi(a, h) + (1 - p) * qf.qfi(b, h) + 1e-8


class TestQfiMatrix:
    def test_ones_is_transverse(self):
        for n in (2, 4, 6):
            gamma = qf.qfi_matrix(qf.ones_state(n))
            assert np.allclose(gamma.matrix, np.diag([n, n, 0.0]), atol=1e-9)

    def test_half_filled_dicke(self):
        gamma = qf.qfi_matrix(qf.dicke(4, 2))
        assert np.allclose(gamma.matrix, np.diag([12.0, 12.0, 0.0]), atol=1e-9)

    def test_duer_three_qubits(self):
        gamma = qf.qfi_matrix(qf.duer_state(3))
        assert np.allclose(gamma.matrix, np.diag([0.5, 0.5, 2.25]), atol=1e-9)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        gamma = qf.qfi_matrix(random_mixed(rng, 3)).matrix
        assert np.array_equal(gamma, gamma.T)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = random_mixed(rng, 2)
            n_vec = random_direction(rng)
            lhs = qf.qfi(rho, qf.spin_along(2, n_vec))
            gamma = qf.qfi_matrix(rho).matrix
            assert abs(lhs - n_vec @ gamma @ n_vec) <= 1e-8

    def test_collective_rotation_preserves_top_eigenvalue(self):
        rng = np.random.default_rng(4)
        theta = 0.7
        jy = qf.collective_spin(3, "y").matrix
        lam, v = np.linalg.eigh(jy)
        u = (v * np.exp(-1j * theta * lam)) @ v.conj().T
        for _ in range(20):
            rho = random_mixed(rng, 3)
            rotated = qf.DensityMatrix(3, u @ rho.matrix @ u.conj().T)
            v0, _ = qf.qfi_max(rho)
            v1, _ = qf.qfi_max(rotated)
            assert abs(v0 - v1) <= 1e-8

    def test_deterministic_and_leaves_generators_alone(self):
        rho = qf.duer_state(9)
        global_before = np.random.get_state(legacy=False)
        caller = np.random.default_rng(3)
        caller_before = caller.bit_generator.state
        first = qf.qfi_matrix(rho).matrix
        assert np.array_equal(qf.qfi_matrix(rho).matrix, first)
        global_after = np.random.get_state(legacy=False)
        assert np.array_equal(global_after["state"]["key"], global_before["state"]["key"])
        assert global_after["state"]["pos"] == global_before["state"]["pos"]
        assert caller.bit_generator.state == caller_before

    def test_white_noise_scaling_entrywise(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            psi = random_pure(rng, 3)
            p = rng.random()
            mixed = qf.qfi_matrix(qf.mix_with_identity(psi, p)).matrix
            pure = qf.qfi_matrix(psi).matrix
            assert np.max(np.abs(mixed - qf.white_noise_factor(p, 3) * pure)) <= 1e-8


def dense_collective_spins(n):
    """J_x, J_y, J_z built from kron'd Pauli matrices, independent of qfisher."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    jays = []
    for sigma in paulis:
        total = np.zeros((2**n, 2**n), dtype=complex)
        for l in range(n):
            term = np.eye(1)
            for m in range(n):
                term = np.kron(term, sigma if m == l else np.eye(2))
            total += term
        jays.append(total / 2)
    return jays


def dense_gamma(rho, jays):
    """Full pair sum 2 (lam_a - lam_b)^2 / (lam_a + lam_b) Re(J_i)_ab (J_j)_ba
    over the pairs with lam_a + lam_b > 1e-12."""
    lam, v = np.linalg.eigh(rho)
    s = lam[:, None] + lam[None, :]
    w = np.where(s > 1e-12, (lam[:, None] - lam[None, :]) ** 2 / np.where(s > 1e-12, s, 1.0), 0.0)
    ms = [v.conj().T @ j @ v for j in jays]
    return np.array([[2 * np.sum(w * np.real(mi * mj.T)) for mj in ms] for mi in ms])


def dense_gamma_pure(psi, jays):
    """4 Re Cov(J_i, J_j) of a state vector."""
    vs = [j @ psi for j in jays]
    means = [np.real(np.vdot(psi, v)) for v in vs]
    return np.array(
        [
            [4 * (np.real(np.vdot(vi, vj)) - mi * mj) for vj, mj in zip(vs, means)]
            for vi, mi in zip(vs, means)
        ]
    )


def covariance_gammas(psis, num_qubits):
    """The pure-state formula 4 Re Cov(J_i, J_j) of a (B, d) stack, (B, 3, 3)."""
    v = fisher._apply_spins(psis, num_qubits)
    e = np.real(np.einsum("bx,ibx->bi", psis.conj(), v))
    s = np.real(np.einsum("ibx,jbx->bij", v.conj(), v))
    return 4.0 * (s - e[:, :, None] * e[:, None, :])


@pytest.fixture(scope="module")
def nine_qubit_spins():
    return dense_collective_spins(9)


class TestSpinKernelsAgainstDense:
    """The bit-flip kernels against dense J's built in the test itself."""

    @staticmethod
    def assert_close(gamma, ref):
        assert np.max(np.abs(gamma - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pure(self, n):
        rng = np.random.default_rng(100 + n)
        jays = dense_collective_spins(n)
        for _ in range(3):
            psi = random_pure(rng, n)
            self.assert_close(qf.qfi_matrix(psi).matrix, dense_gamma_pure(psi.amplitudes, jays))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pure_stack_against_covariance_formula(self, n):
        # Gaussian amplitudes, normalised: Haar-random states
        rng = np.random.default_rng(150 + n)
        psis = rng.standard_normal((20, 2**n)) + 1j * rng.standard_normal((20, 2**n))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        for gamma, ref in zip(fisher._spin_gammas(psis, n), covariance_gammas(psis, n)):
            self.assert_close(gamma, ref)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mixed_full_rank_and_rank_deficient(self, n):
        rng = np.random.default_rng(200 + n)
        jays = dense_collective_spins(n)
        d = 2**n
        for rank in sorted({d, max(1, d // 2), 1}):
            rho = random_mixed(rng, n, rank)
            self.assert_close(qf.qfi_matrix(rho).matrix, dense_gamma(rho.matrix, jays))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixed_every_rank(self, n):
        rng = np.random.default_rng(300 + n)
        jays = dense_collective_spins(n)
        for rank in range(1, 2**n + 1):
            rho = random_mixed(rng, n, rank)
            self.assert_close(qf.qfi_matrix(rho).matrix, dense_gamma(rho.matrix, jays))

    def test_mixed_named_states(self):
        states = [qf.duer_state(n) for n in range(3, 7)] + [qf.smolin_state(p) for p in (2, 3)]
        for psi in (qf.ghz(4), qf.dicke(5, 2), qf.plus_state(3), qf.psi_s4("+")):
            states += [qf.mix_with_identity(psi, p) for p in (0.0, 0.2, 0.7, 1.0)]
        for rho in states:
            self.assert_close(
                qf.qfi_matrix(rho).matrix, dense_gamma(rho.matrix, dense_collective_spins(rho.num_qubits))
            )

    @pytest.mark.parametrize("rank", (24, 25, 32, 33, 56, 57))
    def test_sparse_low_rank(self, rank, nine_qubit_spins):
        # sparse and low-rank: a diagonal state, which is X-form, and a
        # mixture of (|i> + |j>) / sqrt 2 on disjoint pairs, which is not; the
        # ranks straddle 24, 32 and 56, where a range finder of 32 or 64
        # columns with 8 to spare would have to grow
        rng = np.random.default_rng(400 + rank)
        d = 2**9
        weights = rng.uniform(0.1, 1.0, rank)
        weights /= weights.sum()
        diagonal = np.zeros(d)
        diagonal[rng.choice(d, rank, replace=False)] = weights
        vecs = np.zeros((rank, d))
        np.put_along_axis(vecs, rng.permutation(d)[: 2 * rank].reshape(rank, 2), np.sqrt(0.5), axis=1)
        for rho in (np.diag(diagonal), (vecs.T * weights) @ vecs):
            rho = qf.DensityMatrix(9, rho)
            self.assert_close(qf.qfi_matrix(rho).matrix, dense_gamma(rho.matrix, nine_qubit_spins))

    def test_batch_of_mixed_ranks(self):
        # the batch keeps the union of the members' supports; a member's
        # dropped eigenvalues must weigh nothing
        rng = np.random.default_rng(7)
        rhos = np.stack([random_mixed(rng, 3, rank).matrix for rank in range(1, 9)])
        gammas = fisher._spin_gammas(rhos[::-1], 3)
        jays = dense_collective_spins(3)
        for gamma, rho in zip(gammas, rhos[::-1]):
            self.assert_close(gamma, dense_gamma(rho, jays))

    def test_generic_generator(self):
        rng = np.random.default_rng(8)
        for mixed, n in product((random_mixed, random_real_mixed), (1, 2, 3, 4)):
            d = 2**n
            for rank in sorted({1, max(1, d // 2), d}):
                rho = mixed(rng, n, rank)
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                g = g + g.conj().T
                ref = dense_gamma(rho.matrix, [g])[0, 0]
                assert abs(qf.qfi(rho, g) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_ten_qubit_duer_stays_small(self):
        # the kernel holds the 16 MiB state, its eigenvectors and d x r
        # blocks; building the state holds the matrix, its validated copy
        # and the Cholesky factor (no conjugate or unscaled copy)
        tracemalloc.start()
        try:
            rho = qf.duer_state(10)
            _, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gamma = qf.qfi_matrix(rho).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = 10
        expected = n * np.diag([(3 * n - 1) / (3 * n + 3), (3 * n - 1) / (3 * n + 3), n / (n + 1)])
        assert np.max(np.abs(gamma - expected)) <= 1e-12
        assert peak <= 48 * 2**20
        assert built <= 50 * 2**20

    def test_twelve_qubit_dicke_stays_small(self):
        tracemalloc.start()
        try:
            gamma = qf.qfi_matrix(qf.dicke(12, 6)).matrix
            witness = qf.ghz_witness(qf.dicke(12, 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(gamma[0, 0] - 84.0) <= 1e-9 and witness == 0.5
        assert peak < 64 * 2**20


class TestRealArithmetic:
    """States with no imaginary part are diagonalised by real LAPACK. The
    reference diagonalises the same matrix as complex, with dense J's."""

    @staticmethod
    def real_states():
        rng = np.random.default_rng(11)
        states = [qf.duer_state(n) for n in range(3, 9)] + [qf.smolin_state(2), qf.smolin_state(3)]
        for mode in ("dme_violating", "full_family", "bound_entangled"):
            states += [qf.random_ghz_diagonal(rng, mode) for _ in range(4)]
        states += [qf.bound_entangled_ghz_diagonal(2.0, 3.0, 5.0)]
        for psi in (qf.ghz(5), qf.dicke(6, 3)):
            states += [qf.mix_with_identity(psi, p) for p in (0.0, 0.3, 0.8, 1.0)]
        for n in (3, 4, 6):
            d = 2**n
            states += [random_real_mixed(rng, n, rank) for rank in sorted({1, 2, d // 2, d})]
        return states

    def test_gamma_matches_complex_reference(self):
        states = self.real_states()
        jays = {n: dense_collective_spins(n) for n in {rho.num_qubits for rho in states}}
        for rho in states:
            assert rho.matrix.dtype == np.float64
            ref = dense_gamma(rho.matrix.astype(complex), jays[rho.num_qubits])  # a complex eigh
            TestSpinKernelsAgainstDense.assert_close(qf.qfi_matrix(rho).matrix, ref)

    def test_batched_samples_match_complex_reference(self):
        from qfisher import zoo

        jays = dense_collective_spins(3)
        for mode in ("dme_violating", "full_family", "bound_entangled"):
            rngs = [np.random.default_rng([4, i]) for i in range(16)]
            rhos = zoo._random_ghz_diagonal_batch(rngs, mode)
            for gamma, rho in zip(fisher._spin_gammas(rhos, 3), rhos):
                TestSpinKernelsAgainstDense.assert_close(gamma, dense_gamma(rho, jays))

    def test_lapack_sees_the_real_part(self, linalg_dtypes):
        # real states that are not X-form: their coherences leave the antidiagonal
        rng = np.random.default_rng(13)
        seen = linalg_dtypes("eigh", "cholesky")
        noisy_dicke = qf.mix_with_identity(qf.dicke(4, 2), 0.5)
        for rho in (random_real_mixed(rng, 3, 4), random_real_mixed(rng, 4, 16), noisy_dicke):
            qf.qfi_matrix(rho)
        assert seen == {"eigh": [np.float64] * 3, "cholesky": [np.float64] * 3}

    def test_x_form_stacks_make_no_lapack_call(self, linalg_dtypes):
        # X-form stacks and their partial transposes are validated, read by the
        # spin-QFI kernel and PPT-tested block by block; the tests above check
        # their Gamma against complex LAPACK
        from qfisher import zoo

        seen = linalg_dtypes("eigh", "eigvalsh", "cholesky")
        rhos = [qf.duer_state(6).matrix[None], qf.mix_with_identity(qf.ghz(4), 0.5).matrix[None]]
        rhos.append(zoo._random_ghz_diagonal_batch([np.random.default_rng([4, i]) for i in range(64)], "dme_violating"))
        for rho in rhos:
            _check_density_stack(rho)
            fisher._spin_gammas(rho, rho.shape[-1].bit_length() - 1)
            qf.is_ppt(rho, [0])
        assert seen == {"eigh": [], "eigvalsh": [], "cholesky": []}

    def test_complex_states_stay_complex(self, linalg_dtypes):
        rng = np.random.default_rng(14)
        seen = linalg_dtypes("eigh", "cholesky")
        for rho in (qf.duer_state(6, phi=0.3), random_mixed(rng, 3, 4)):
            qf.qfi_matrix(rho)
        assert seen == {"eigh": [np.complex128] * 2, "cholesky": [np.complex128] * 2}

    def test_povm_effects(self, linalg_dtypes):
        # the x-parity effects (I +- X^N) / 2 are real X-form and decided by
        # their blocks; the complex y-parity effects pass the Cholesky test,
        # and no eigvalsh decides them
        seen = linalg_dtypes("cholesky", "eigvalsh")
        qf.parity_povm(3, "x")
        qf.parity_povm(3, "y")
        assert seen == {"cholesky": [np.complex128] * 2, "eigvalsh": []}


def x_form_states(seed, n, b):
    """A seeded (b, d, d) stack of real X-form density matrices, validated,
    each block [[p, c], [c, q]] built from two eigenvalues and a rotation
    through a random angle, so the coherences carry both signs. Member 0 has
    degenerate blocks (p = q, c = 0), member 1 zero blocks as in
    ``duer_state``, member 2 negative coherences only, member 3 rank d/2,
    member 4 rank one, and member 5 an eigenvalue of -4e-10, inside the PSD
    tolerance, which both kernels cut to 0. From N = 8 every member keeps
    block 0 and 11 others at most, so the general kernel's support stays
    small."""
    rng = np.random.default_rng(seed)
    d = 2**n
    h = d // 2
    lower, upper = np.sort(rng.random((2, b, h)), axis=0)
    theta = rng.uniform(-np.pi, np.pi, (b, h))
    lower[0], theta[0] = upper[0], 0.0
    lower[1, ::3] = upper[1, ::3] = 0.0
    theta[2] = -np.abs(theta[2]) % (np.pi / 2) - np.pi / 2  # sin 2theta < 0
    lower[3] = 0.0
    lower[4], upper[4, 1:] = 0.0, 0.0
    if n >= 8:
        for m in range(b):
            drop = rng.permutation(np.arange(1, h))[11:]
            lower[m, drop] = upper[m, drop] = 0.0
    scale = lower.sum(axis=1) + upper.sum(axis=1)
    lower, upper = lower / scale[:, None], upper / scale[:, None]
    upper[5, 0] += lower[5, 0] + 4e-10  # the trace stays 1
    lower[5, 0] = -4e-10
    cos, sin = np.cos(theta), np.sin(theta)
    j = np.arange(h)
    mats = np.zeros((b, d, d))
    mats[:, j, j] = upper * cos**2 + lower * sin**2
    mats[:, d - 1 - j, d - 1 - j] = upper * sin**2 + lower * cos**2
    mats[:, j, d - 1 - j] = mats[:, d - 1 - j, j] = (upper - lower) * sin * cos
    return _check_density_stack(mats)


def general_spin_gammas(batch, n):
    """The general kernel, forced: ``_qfi_batch`` with the bit-flip spins."""
    return fisher._qfi_batch(batch, lambda v: fisher._apply_spins(v, n, axis=-2), 3)


class TestXFormBlockPath:
    """A real X-form mixed stack of N >= 3 qubits is read block by block: no
    eigendecomposition and no d x d product, with the general kernel's
    Gamma to 1e-12 relative."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_general_kernel(self, n):
        rhos = x_form_states(500 + n, n, 8 if n < 8 else 6)
        ref = general_spin_gammas(rhos, n)
        gammas = fisher._spin_gammas(rhos, n)
        for gamma, want in zip(gammas, ref):
            TestSpinKernelsAgainstDense.assert_close(gamma, want)
        if n >= 3:  # the block path, whose off-diagonal entries vanish exactly
            assert not gammas[:, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]].any()
        # a member's Gamma does not depend on the batch it is read in
        for gamma, rho in zip(gammas, rhos):
            assert np.array_equal(fisher._spin_gammas(rho[None], n)[0], gamma)

    def test_mixed_rank_batches(self):
        # one batch of ranks 1 to d: the sampled members, and white-noise
        # mixtures of GHZ and Dür states down to the maximally mixed state
        n = 5
        named = [qf.mix_with_identity(qf.ghz(n), p).matrix for p in (0.0, 0.05, 0.7, 1.0)]
        named += [qf.mix_with_identity(qf.duer_state(n), p).matrix for p in (0.3, 1.0)]
        batch = np.concatenate((x_form_states(7, n, 8), np.stack(named)))
        for gamma, want in zip(fisher._spin_gammas(batch, n), general_spin_gammas(batch, n)):
            TestSpinKernelsAgainstDense.assert_close(gamma, want)

    def test_ten_qubit_duer_makes_no_dense_eigh(self, monkeypatch):
        shapes = []

        def eigh(a, *args, _eigh=np.linalg.eigh, **kwargs):
            shapes.append(a.shape[-1])
            return _eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        gamma = qf.qfi_matrix(qf.duer_state(10)).matrix
        assert shapes == []
        assert abs(gamma[2, 2] - 10 * 10 / 11) <= 1e-12


class TestMemoryBudget:
    """The dense working-set estimates, checked with a lowered budget."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise AssertionError("allocated past the budget check")

    def test_eigendecomposition_checked_before_it_runs(self, monkeypatch):
        rho = random_mixed(np.random.default_rng(9), 3)
        monkeypatch.setattr(fisher, "MAX_DENSE_BYTES", 16 * 8 * 8 * 4 - 1)
        monkeypatch.setattr(np.linalg, "eigh", self._fail)
        for call in (lambda: qf.qfi_matrix(rho), lambda: qf.qfi(rho, qf.collective_spin(3, "z"))):
            with pytest.raises(ValueError, match=r"^the eigendecomposition needs about .* fisher.MAX_DENSE_BYTES$"):
                call()

    def test_kernel_checked_before_it_applies_the_spins(self, monkeypatch):
        # full rank: the kernel's 16 * d * (d + 3d + d) bytes exceed the
        # eigendecomposition's 16 * d * d * 4
        rho = random_mixed(np.random.default_rng(9), 3)
        monkeypatch.setattr(fisher, "MAX_DENSE_BYTES", 16 * 8 * 8 * 5 - 1)
        monkeypatch.setattr(fisher, "_apply_spins", self._fail)
        with pytest.raises(ValueError, match=r"^the mixed QFI kernel needs about .* fisher.MAX_DENSE_BYTES$"):
            qf.qfi_matrix(rho)

    def test_cli_exits_2(self, monkeypatch, capsys, tmp_path):
        # a real mixed state that is not X-form, so it reaches the dense kernel
        from qfisher.cli import main

        path = tmp_path / "noisy_dicke.json"
        qf.save_state(qf.mix_with_identity(qf.dicke(6, 3), 0.5), path)
        monkeypatch.setattr(fisher, "MAX_DENSE_BYTES", 2**10)
        assert main(["analyze", "--state", str(path)]) == 2
        assert "budget of fisher.MAX_DENSE_BYTES" in capsys.readouterr().err

    def test_x_basis_povm_checked_before_it_allocates(self, monkeypatch):
        monkeypatch.setattr(np, "bitwise_count", self._fail)
        # d effects of d x d and their frozen copies: 2 * 16 * d^3 bytes
        with pytest.raises(ValueError, match=r"^the x-basis POVM needs about 4096 MB"):
            qf.x_basis_povm(9)
        monkeypatch.setattr(fisher, "MAX_DENSE_BYTES", 2 * 16 * 8**3 - 1)
        with pytest.raises(ValueError, match=r"^the x-basis POVM needs about .* fisher.MAX_DENSE_BYTES$"):
            qf.x_basis_povm(3)

    def test_phase_sim_x_basis_exits_2(self, capsys):
        from qfisher.cli import main

        assert main(["phase-sim", "--state", "plus:9"]) == 2
        assert "the x-basis POVM needs about 4096 MB" in capsys.readouterr().err


class TestQfiSummaries:
    def test_ghz4_max_direction(self):
        value, direction = qf.qfi_max(qf.ghz(4))
        assert abs(value - 16.0) <= 1e-9
        assert np.allclose(np.abs(direction), [0, 0, 1], atol=1e-9)

    def test_isotropic_state(self):
        value, _ = qf.qfi_max(qf.psi_s4("+"))
        assert abs(value - 8.0) <= 1e-9

    def test_smolin_max(self):
        value, _ = qf.qfi_max(qf.smolin_state(2))
        assert abs(value - 4.0) <= 1e-9

    def test_avg_values(self):
        assert abs(qf.qfi_avg(qf.ghz(4)) - 8.0) <= 1e-9
        assert abs(qf.qfi_avg(qf.ones_state(4)) - 8.0 / 3.0) <= 1e-9
        assert abs(qf.qfi_avg(qf.duer_state(4)) - 136.0 / 45.0) <= 1e-9

    def test_montecarlo_matches_average(self):
        value = qf.qfi_avg_montecarlo(qf.density_from_pure(qf.ghz(4)), 10_000, seed=0)
        assert abs(value - 8.0) <= 0.3

    def test_montecarlo_isotropic_exact(self):
        assert abs(qf.qfi_avg_montecarlo(qf.psi_s4("+"), 1, seed=0) - 8.0) <= 1e-9

    def test_montecarlo_deterministic(self):
        a = qf.qfi_avg_montecarlo(qf.ghz(3), 50, seed=11)
        b = qf.qfi_avg_montecarlo(qf.ghz(3), 50, seed=11)
        assert a == b


class TestPovm:
    def test_parity_completeness(self):
        povm = qf.parity_povm(3, "x")
        assert len(povm) == 2
        total = sum(povm.elements)
        assert np.max(np.abs(total - np.eye(8))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_parity_matches_kron_reference(self, n, axis):
        power = reduce(np.kron, [PAULIS[axis]] * n)
        eye = np.eye(2**n)
        elements = qf.parity_povm(n, axis).elements
        assert np.array_equal(elements[0], (eye + power) / 2)
        assert np.array_equal(elements[1], (eye - power) / 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_x_basis_matches_kron_reference(self, n):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        basis = reduce(np.kron, [h] * n)
        elements = qf.x_basis_povm(n).elements
        assert len(elements) == 2**n
        for i, e in enumerate(elements):
            assert np.array_equal(e, np.outer(basis[:, i], basis[:, i].conj()))

    def test_builders_form_no_kron_product(self, monkeypatch):
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        psi = random_pure(rng, 4)

        def build():
            return [
                *qf.parity_povm(4, "y").elements,
                *qf.x_basis_povm(3).elements,
                qf.smolin_state(2).matrix,
                qf.local_generator(dirs).matrix,
                qf.optimize_local_directions(psi, restarts=2, seed=0)[1],
            ]

        expected = build()

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        for got, want in zip(build(), expected, strict=True):
            assert np.array_equal(got, want)

    def test_invalid_povm_rejected(self):
        eye = np.eye(2)
        with pytest.raises(InvariantError):
            qf.Povm((eye * 0.5,))  # incomplete
        with pytest.raises(InvariantError):
            qf.Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # negative element
        with pytest.raises(InvariantError, match="^POVM elements must share one square shape$"):
            qf.Povm([1.0])  # an effect that is not a matrix

    def test_non_hermitian_effects_rejected(self):
        # I/2 +- 0.4i X sum to I and have PSD Hermitian parts I/2
        x = PAULIS["x"]
        for part in (0.4j * x, 0.4 * (PAULIS["z"] @ x)):
            with pytest.raises(InvariantError, match=r"^POVM element is not Hermitian within 1e-10$"):
                qf.Povm((np.eye(2) / 2 + part, np.eye(2) / 2 - part))


class TestClassicalFisher:
    def test_parity_fringe_saturates_qfi(self):
        for n in (2, 4, 6):
            # analytic outcome model (1 +- cos(N theta))/2 carries exactly N^2
            rho = qf.density_from_pure(qf.ghz(n))
            f = qf.classical_fisher(
                rho, qf.collective_spin(n, "z"), qf.parity_povm(n, "x"), np.pi / (4 * n)
            )
            assert abs(f - n**2) <= 1e-4

    def test_insensitive_measurement(self):
        rho = qf.density_from_pure(qf.ghz(3))
        f = qf.classical_fisher(rho, qf.collective_spin(3, "z"), projective_povm(np.eye(8)), 0.3)
        assert abs(f) <= 1e-10

    def test_separable_probe_bounded(self):
        rho = qf.density_from_pure(qf.plus_state(4))
        f = qf.classical_fisher(rho, qf.collective_spin(4, "z"), qf.x_basis_povm(4), 0.1)
        assert f <= 4 + 1e-4

    @pytest.mark.parametrize("dtheta", [0.0, -1e-5, np.inf, np.nan])
    def test_step_must_be_positive_and_finite(self, dtheta):
        args = (qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), 0.3)
        with pytest.raises(ValueError, match="dtheta must be positive and finite"):
            qf.classical_fisher(*args, dtheta=dtheta)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_phase_must_be_finite(self, theta):
        args = (qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"))
        with pytest.raises(ValueError, match=r"^theta must be finite"):
            qf.classical_fisher(*args, theta)

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            rho = random_mixed(rng, 2)
            h = qf.spin_along(2, random_direction(rng))
            basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            povm = projective_povm(basis)
            theta = rng.uniform(0, np.pi)
            assert qf.classical_fisher(rho, h, povm, theta) <= qf.qfi(rho, h) + 1e-4


def reference_probabilities(rho, h, povm, thetas):
    """tr(U rho U^dagger E_mu) with U = V exp(-i theta Lambda) V^dagger, one theta at a time."""
    lam, v = np.linalg.eigh(h)
    out = np.empty((len(thetas), len(povm)))
    for t, theta in enumerate(thetas):
        u = (v * np.exp(-1j * theta * lam)) @ v.conj().T
        rho_t = u @ rho @ u.conj().T
        out[t] = [np.real(np.trace(rho_t @ e)) for e in povm.elements]
    return out


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def random_povm(rng, d, outcomes):
    """Non-projective POVM S^(-1/2) A_k S^(-1/2) from random positive A_k, S = sum A_k."""
    parts = [a @ a.conj().T for a in (random_unitary(rng, d)[:, :2] for _ in range(outcomes))]
    lam, v = np.linalg.eigh(sum(parts))
    s_inv_half = (v / np.sqrt(lam)) @ v.conj().T
    return qf.Povm(tuple(s_inv_half @ a @ s_inv_half for a in parts))


class TestModelProbabilities:
    """The eigen-gap contraction against conjugation by U(theta) in the test itself."""

    @pytest.mark.parametrize("generator", ["jz", "random"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_conjugation(self, n, generator):
        rng = np.random.default_rng(300 + n)
        d = 2**n
        if generator == "jz":
            h = dense_collective_spins(n)[2]  # degenerate: N + 1 distinct eigenvalues
        else:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (a + a.conj().T) / 2
            assert np.min(np.diff(np.linalg.eigvalsh(h))) > 1e-3
        thetas = rng.uniform(-np.pi, np.pi, 25)
        povms = [projective_povm(random_unitary(rng, d)), random_povm(rng, d, d + 1)]
        pure, mixed = random_pure(rng, n), random_mixed(rng, n)
        psi = pure.amplitudes
        for state, rho in ((pure, np.outer(psi, psi.conj())), (mixed, mixed.matrix)):
            for povm in povms:
                got = qf.model_probabilities(state, h, povm, thetas)
                ref = reference_probabilities(rho, h, povm, thetas)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "n, generator", [(8, "jz"), (6, "random")], ids=["ghz8-jz", "ghz6-random"]
    )
    def test_grid_table_stays_small(self, n, generator):
        # a (T, d, d) broadcast of ghz(8) on 512 points would take about 540 MB;
        # the random generator has d^2 - d + 1 gaps, 33 MB of phases if unblocked
        if generator == "jz":
            h = qf.collective_spin(n, "z")
        else:
            a = np.random.default_rng(9).standard_normal((2**n, 2**n))
            h = (a + a.T) / 2
        args = (qf.ghz(n), h, qf.parity_povm(n))
        grid = np.linspace(0.0, np.pi / 8, 512)
        tracemalloc.start()
        try:
            probs = qf.model_probabilities(*args, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert probs.shape == (512, 2)
        if generator == "jz":
            assert np.max(np.abs(probs[:, 0] - (1 + np.cos(n * grid)) / 2)) <= 1e-12


def scalar_max_on_sphere(a, c, current):
    """One row of the sphere step as the optimiser solved it before the
    restarts ran in lock step: argmax over unit n of -(n.a)^2 + 2 n.c, with
    the stationary points from ``np.roots``."""
    na, nc = np.linalg.norm(a), np.linalg.norm(c)
    if na < 1e-14 and nc < 1e-14:
        return current
    if na < 1e-14:
        return c / nc
    a_hat = a / na
    c_par = float(np.dot(c, a_hat))
    c_perp_vec = c - c_par * a_hat
    cp = float(np.linalg.norm(c_perp_vec))
    if cp < 1e-14:
        t = np.clip(c_par / na**2, -1.0, 1.0)
        s = np.sqrt(max(0.0, 1.0 - t * t))
        probe = np.eye(3)[np.argmin(np.abs(a_hat))]
        p_hat = probe - np.dot(probe, a_hat) * a_hat
        p_hat /= np.linalg.norm(p_hat)
        return t * a_hat + s * p_hat
    p_hat = c_perp_vec / cp
    beta = na**2

    def g(t):
        return -beta * t * t + 2.0 * c_par * t + 2.0 * cp * np.sqrt(np.maximum(0.0, 1.0 - t * t))

    coeffs = [-(beta**2), 2.0 * c_par * beta, beta**2 - c_par**2 - cp**2, -2.0 * c_par * beta, c_par**2]
    roots = np.roots(coeffs)
    real = roots.real[(np.abs(roots.imag) < 1e-9) & (np.abs(roots.real) <= 1.0)]
    cand = np.concatenate([real, [-1.0, 1.0], np.linspace(-0.999, 0.999, 21)])
    t = cand[np.argmax(g(cand))]
    s = np.sqrt(max(0.0, 1.0 - t * t))
    return t * a_hat + s * p_hat


def sequential_local_directions(psi, max_iters=100, restarts=10, seed=None):
    """The local-direction search one restart at a time, as it ran before the
    lock-step rewrite; returns the best value, its directions and the value
    of every restart."""
    n = psi.num_qubits
    rng = np.random.default_rng(seed)

    def embed(op, l):
        """``op`` on qubit l as a dense 2^N x 2^N operator, built with kron."""
        return np.kron(np.kron(np.eye(2**l), op), np.eye(2 ** (n - 1 - l)))

    paulis_psi = np.array([[embed(0.5 * PAULIS[ax], l) @ psi.amplitudes for ax in "xyz"] for l in range(n)])
    means = np.real(np.einsum("x,lix->li", psi.amplitudes.conj(), paulis_psi))

    def objective(h_psi):
        mean = float(np.real(np.vdot(psi.amplitudes, h_psi)))
        return 4.0 * (float(np.real(np.vdot(h_psi, h_psi))) - mean**2)

    _, collective_dir = qf.qfi_max(psi)
    starts = [np.tile(collective_dir, (n, 1))]
    for _ in range(restarts):
        raw = rng.standard_normal((n, 3))
        starts.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))

    best_value, best_dirs, values = -np.inf, starts[0], []
    for dirs in starts:
        dirs = dirs.copy()
        h_psi = np.einsum("li,lix->x", dirs, paulis_psi)
        value = objective(h_psi)
        for _ in range(max_iters):
            for l in range(n):
                b_psi = h_psi - dirs[l] @ paulis_psi[l]
                b_mean = float(np.real(np.vdot(psi.amplitudes, b_psi)))
                cross = np.real(paulis_psi[l].conj() @ b_psi)
                c = cross - means[l] * b_mean
                dirs[l] = scalar_max_on_sphere(means[l], c, dirs[l])
                h_psi = b_psi + dirs[l] @ paulis_psi[l]
            new_value = objective(h_psi)
            if new_value - value < 1e-10:
                value = max(value, new_value)
                break
            value = new_value
        values.append(value)
        if value > best_value:
            best_value, best_dirs = value, dirs
    return best_value, best_dirs, np.array(values)


class TestLocalDirectionOptimization:
    def test_ghz_optimum_along_z(self):
        # the two-qubit case is omitted from the direction check: its optimum
        # is degenerate (the x axis reaches 4 as well)
        for n in (2, 3, 4):
            value, dirs = qf.optimize_local_directions(qf.ghz(n), seed=0)
            assert abs(value - n**2) <= 1e-8
            if n >= 3:
                assert np.all(np.abs(np.abs(dirs[:, 2]) - 1.0) <= 1e-6)

    def test_product_state_additivity(self):
        psi = qf.tensor(qf.plus_state(1), qf.ones_state(1))
        value, _ = qf.optimize_local_directions(psi, seed=0)
        assert abs(value - 2.0) <= 1e-8

    def test_symmetric_states_match_collective(self):
        for state in (qf.dicke(4, 2), qf.ghz(3), qf.psi_s4("+")):
            value, _ = qf.optimize_local_directions(state, seed=1)
            collective, _ = qf.qfi_max(state)
            assert abs(value - collective) <= 1e-8

    def test_never_below_collective(self):
        rng = np.random.default_rng(7)
        for i in range(10):
            psi = random_pure(rng, 3)
            value, _ = qf.optimize_local_directions(psi, restarts=3, seed=i)
            collective, _ = qf.qfi_max(psi)
            assert value >= collective - 1e-8

    def test_rejects_mixed_input(self):
        with pytest.raises(TypeError):
            qf.optimize_local_directions(qf.mix_with_identity(qf.ghz(2), 0.5))

    # the lock-step search against the one-restart-at-a-time reference above
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lock_step_matches_sequential_on_haar_states(self, n):
        for seed in range(3):
            psi = random_pure(np.random.default_rng([n, seed]), n)
            self.check_against_sequential(psi, restarts=4, seed=seed)

    @pytest.mark.parametrize(
        "spec", ["ghz:2", "ghz:3", "ghz:5", "dicke:3:1", "dicke:4:2", "dicke:5:2", "psi_s4:+", "plus:3", "ones:3"]
    )
    def test_lock_step_matches_sequential_on_zoo_states(self, spec):
        psi = qf.parse_state_spec(spec)
        for restarts, seed in ((0, 0), (4, 1), (10, 2)):
            self.check_against_sequential(psi, restarts, seed)

    def test_lock_step_matches_sequential_on_product_states(self):
        rng = np.random.default_rng(11)
        factors = [random_pure(rng, 1) for _ in range(4)]
        product = reduce(qf.tensor, factors)
        for psi in (qf.tensor(qf.plus_state(1), qf.ones_state(1)), product):
            self.check_against_sequential(psi, restarts=4, seed=3)

    @staticmethod
    def check_against_sequential(psi, restarts, seed):
        value, dirs = qf.optimize_local_directions(psi, restarts=restarts, seed=seed)
        ref_value, ref_dirs, values = sequential_local_directions(psi, restarts=restarts, seed=seed)
        assert abs(value - ref_value) <= 1e-10
        assert dirs.shape == (psi.num_qubits, 3)
        # the value is the QFI of the dense generator built from the directions
        assert abs(value - qf.qfi(psi, qf.local_generator(dirs))) <= 1e-10
        # the winning restart is the same one only where its value stands out
        runner_up = np.sort(values)[-2] if values.size > 1 else -np.inf
        if ref_value - runner_up > 1e-8:
            assert np.max(np.abs(dirs - ref_dirs)) <= 1e-8

    def test_sphere_step_matches_scalar_on_edge_inputs(self):
        a = np.array([0.3, -0.4, 1.2])
        a_hat = a / np.linalg.norm(a)
        across = np.cross(a_hat, [1.0, 0.0, 0.0])
        rng = np.random.default_rng(4)
        batches = [
            # a = 0: along c, or the current direction where c = 0 too
            (np.zeros(3), np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [1e-15, 0.0, 0.0], [0.0, 3.0, 0.0]])),
            # a = c = 0
            (np.zeros(3), np.zeros((3, 3))),
            # c parallel to a, on both sides, past the parabola's vertex, and c = 0
            (a, np.array([0.5 * a, -7.0 * a, 1e-3 * a, 0.0 * a, 3.0 * a])),
            # c_par = 0 exactly: mu = c_perp is the root at once, and the
            # oracle's np.roots strips the quartic's two vanishing coefficients
            (np.array([0.0, 0.0, 2.0]), np.array([[1.0, 0.5, 0.0], [3.0, 4.0, 0.0], [0.3, 0.0, 0.0], [0.0, 2.0, 0.0]])),
            # the same next to rows with nothing to strip
            (np.array([0.0, 0.0, 2.0]), np.array([[1.0, 0.5, 0.0], [1.0, 0.5, 0.25], [0.0, 5.0, 0.0], [0.0, 5.0, -1.0]])),
            # general rows beside the parallel and the c_par = 0 cases
            (a, np.vstack([2.0 * a, 0.7 * across, rng.standard_normal((6, 3))])),
            # one a per row, as the restarts of a stack of states have: a = 0
            # rows (c = 0 or not), c parallel to a, c_par = 0 and generic rows
            (
                np.vstack([np.zeros((2, 3)), a, -a, [0.0, 0.0, 2.0], rng.standard_normal((3, 3))]),
                np.vstack([[1.0, -2.0, 0.5], np.zeros(3), 0.5 * a, 3.0 * a, [1.0, 0.5, 0.0], rng.standard_normal((3, 3))]),
            ),
        ]
        for a_vec, c in batches:
            current = rng.standard_normal(c.shape)
            current /= np.linalg.norm(current, axis=1, keepdims=True)
            got = fisher._max_on_sphere(a_vec, c, current)
            assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-14
            a_rows = np.broadcast_to(a_vec, c.shape)
            for row, want in enumerate(scalar_max_on_sphere(a_rows[i], c[i], current[i]) for i in range(len(c))):
                assert np.max(np.abs(got[row] - want)) <= 1e-12

        # seeded rows: |a| and |c| over nine decades, and c nearly parallel to
        # a on both sides of the parabola's vertex (|c_par| below and above
        # |a|^2), where c - c_par a_hat loses digits; the oracle's direction
        # is not exact there, so the step is held to the oracle's objective
        def unit(x):
            return x / np.linalg.norm(x, axis=-1, keepdims=True)

        size = 400
        a = unit(rng.standard_normal((size, 3))) * 10.0 ** rng.uniform(-6, 3, (size, 1))
        c = unit(rng.standard_normal((size, 3))) * 10.0 ** rng.uniform(-6, 3, (size, 1))
        a_hat = unit(a[size // 2 :])
        across = unit(np.cross(a_hat, rng.standard_normal(a_hat.shape)))
        c_par = np.linalg.norm(a[size // 2 :], axis=1) ** 2 * rng.choice([-3.0, -0.7, 0.2, 0.95, 1.05, 4.0], size // 2)
        ratio = 10.0 ** rng.uniform(-13, -5, size // 2)
        c[size // 2 :] = c_par[:, None] * a_hat + (np.abs(c_par) * ratio)[:, None] * across
        current = unit(rng.standard_normal((size, 3)))
        got = fisher._max_on_sphere(a, c, current)
        assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-14

        def objective(n, a, c):
            return -np.dot(n, a) ** 2 + 2.0 * np.dot(n, c)

        for i in range(size):
            want = scalar_max_on_sphere(a[i], c[i], current[i])
            want = want / np.linalg.norm(want)  # the oracle's t can be 1 + 7e-11
            scale = max(1.0, np.dot(a[i], a[i]), np.linalg.norm(c[i]))
            assert objective(got[i], a[i], c[i]) >= objective(want, a[i], c[i]) - 1e-12 * scale

    def test_converged_restarts_do_no_more_work(self, monkeypatch):
        # each restart stops on its own: the lock-step sphere steps number
        # exactly those of the restarts run one at a time
        psi = random_pure(np.random.default_rng(12), 4)
        sizes, scalar_calls = [], []
        step, scalar_step = fisher._max_on_sphere, scalar_max_on_sphere
        monkeypatch.setattr(fisher, "_max_on_sphere", lambda a, c, cur: sizes.append(len(c)) or step(a, c, cur))
        monkeypatch.setitem(
            globals(), "scalar_max_on_sphere", lambda a, c, cur: scalar_calls.append(1) or scalar_step(a, c, cur)
        )
        qf.optimize_local_directions(psi, restarts=6, seed=2)
        sequential_local_directions(psi, restarts=6, seed=2)
        assert sizes[0] == 7 and sizes == sorted(sizes, reverse=True) and sizes[-1] < 7
        assert sum(sizes) == len(scalar_calls)

    def test_stack_sweeps_as_long_as_its_slowest_state(self, monkeypatch):
        # the restarts of a stack advance together: its batched sphere steps
        # number those of its slowest state run alone, not the sum over states
        psis = [random_pure(np.random.default_rng([13, i]), 3) for i in range(6)]
        calls = []
        step = fisher._max_on_sphere
        monkeypatch.setattr(fisher, "_max_on_sphere", lambda a, c, cur: calls.append(len(c)) or step(a, c, cur))
        alone = []
        for i, psi in enumerate(psis):
            calls.clear()
            value, _ = qf.optimize_local_directions(psi, restarts=4, seed=i)
            alone.append((len(calls), value))
        calls.clear()
        amps = np.stack([psi.amplitudes for psi in psis])
        values, dirs = fisher._local_directions_batch(amps, 3, range(6), restarts=4)
        assert len(calls) == max(n for n, _ in alone) < sum(n for n, _ in alone)
        assert dirs.shape == (6, 3, 3)
        assert np.max(np.abs(values - [value for _, value in alone])) <= 1e-12

    def test_rejects_bad_search_sizes(self):
        psi = qf.ghz(3)
        with pytest.raises(ValueError, match="restarts"):
            qf.optimize_local_directions(psi, restarts=-1)

    def test_no_restarts_is_the_collective_start_alone(self):
        psi = random_pure(np.random.default_rng(8), 3)
        value, dirs = qf.optimize_local_directions(psi, restarts=0, seed=0)
        ref_value, ref_dirs, values = sequential_local_directions(psi, restarts=0, seed=0)
        assert values.size == 1
        assert abs(value - ref_value) <= 1e-10
        assert value >= qf.qfi_max(psi)[0] - 1e-8
        # the seed draws nothing when there is no random start
        assert np.array_equal(dirs, qf.optimize_local_directions(psi, restarts=0, seed=5)[1])
