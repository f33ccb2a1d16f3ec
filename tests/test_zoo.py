import tracemalloc
from functools import reduce

import numpy as np
import pytest

import qfisher as qf
from qfisher import zoo
from qfisher.core import PAULIS, InvariantError, _check_density_stack
from qfisher.zoo import GhzDiagonalParams


class TestGhz:
    def test_amplitude_positions(self):
        psi = qf.ghz(3)
        assert abs(psi.amplitudes[0] - 1 / np.sqrt(2)) <= 1e-15
        assert abs(psi.amplitudes[7] - 1 / np.sqrt(2)) <= 1e-15
        assert np.all(psi.amplitudes[1:7] == 0)

    def test_phase_flips_corner_coherence(self):
        rho = qf.density_from_pure(qf.ghz(3, phi=np.pi))
        assert abs(rho.matrix[0, 7] + 0.5) <= 1e-12

    def test_max_qfi(self):
        for n in range(2, 7):
            value, _ = qf.qfi_max(qf.ghz(n))
            assert abs(value - n**2) <= 1e-9


class TestDicke:
    def test_two_qubit_one_excitation(self):
        psi = qf.dicke(2, 1)
        assert np.allclose(psi.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_no_excitations_is_zeros(self):
        psi = qf.dicke(4, 0)
        assert abs(psi.amplitudes[0] - 1.0) <= 1e-15

    def test_jz_eigenstate(self):
        for n, k in ((4, 1), (5, 2), (6, 3)):
            psi = qf.dicke(n, k)
            jz = qf.collective_spin(n, "z")
            mean = np.vdot(psi.amplitudes, jz.matrix @ psi.amplitudes).real
            assert abs(mean - (n - 2 * k) / 2) <= 1e-12
            assert qf.variance(psi, jz) <= 1e-12

    def test_excitation_range(self):
        with pytest.raises(ValueError):
            qf.dicke(3, 4)


class TestIsotropicFourQubit:
    def test_spin_qfi_matrix_isotropic(self):
        for sign in "+-":
            gamma = qf.qfi_matrix(qf.psi_s4(sign))
            assert np.max(np.abs(gamma.matrix - 8 * np.eye(3))) <= 1e-9

    def test_zero_mean_spin(self):
        psi = qf.psi_s4("+")
        for ax in "xyz":
            assert abs(np.vdot(psi.amplitudes, qf.collective_spin(4, ax).matrix @ psi.amplitudes)) <= 1e-12

    def test_critical_mixing_halves_the_matrix(self):
        p_star = (7 + np.sqrt(113)) / 32
        gamma = qf.qfi_matrix(qf.mix_with_identity(qf.psi_s4("+"), p_star))
        assert np.max(np.abs(gamma.matrix - 4 * np.eye(3))) <= 1e-8

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            qf.psi_s4("x")


class TestXForm:
    def test_pure_corner(self):
        rho = qf.ghz_diagonal([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0])
        assert abs(rho.matrix[0, 0] - 1.0) <= 1e-15

    def test_ghz_projector(self):
        rho = qf.ghz_diagonal([1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0])
        assert np.allclose(rho.matrix, qf.density_from_pure(qf.ghz(3)).matrix)

    def test_symmetric_weights_diagonal_in_ghz_basis(self):
        lambdas = (0.9, 0.5, 0.3, 0.1, 0.1, 0.3, 0.5, 0.9)
        mus = (0.4, 0.2, 0.15, 0.05)
        rho = qf.ghz_diagonal(lambdas, mus)
        vals, vecs = np.linalg.eigh(rho.matrix)
        basis = np.stack(
            [
                qf.ghz_basis_state((0, b1, b2), phi).amplitudes
                for b1 in (0, 1)
                for b2 in (0, 1)
                for phi in (0.0, np.pi)
            ]
        )
        overlap = np.abs(basis.conj() @ vecs)
        # each eigenvector matches exactly one GHZ-basis state
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-9)
        assert np.allclose(np.sort(overlap, axis=0)[:-1], 0.0, atol=1e-9)

    def test_block_positivity_enforced(self):
        with pytest.raises(InvariantError):
            GhzDiagonalParams((1, 0, 0, 0, 0, 0, 0, 1), (1.5, 0, 0, 0))
        with pytest.raises(InvariantError):
            GhzDiagonalParams((-1, 1, 1, 1, 1, 1, 1, 1), (0, 0, 0, 0))

    def test_block_edge_fails_the_eigenvalue_test(self):
        # mu_0^2 sits just inside lam_0 * lam_7 + 1e-12, so the block test
        # passes; the block's smaller eigenvalue is still about -3.3e-8
        lam = np.array([1e-5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 1e-5])
        mus = np.array([np.sqrt(1e-10 + 0.999e-12), 0.0, 0.0, 0.0])
        zoo._check_x_form(lam, mus)
        with pytest.raises(InvariantError, match=r"^smallest eigenvalue -3\.\d+e-08 below -1e-09$"):
            qf.ghz_diagonal(lam, mus)
        with pytest.raises(InvariantError, match=r"^sample 0: smallest eigenvalue -3\.\d+e-08 below"):
            _check_density_stack(zoo._x_form_matrices(lam[None], mus[None]))


class TestBoundEntangledFamily:
    def test_ppt_on_every_cut(self):
        rho = qf.bound_entangled_ghz_diagonal(2.0, 3.0, 5.0)
        assert all(qf.is_ppt(rho, [q]) for q in range(3))

    def test_normalization(self):
        l2, l3, l4 = 2.0, 3.0, 5.0
        rho = qf.bound_entangled_ghz_diagonal(l2, l3, l4)
        norm = 2 + sum(v + 1 / v for v in (l2, l3, l4))
        assert abs(rho.matrix[0, 0].real - 1 / norm) <= 1e-12

    def test_boundary_case_constructs(self):
        rho = qf.bound_entangled_ghz_diagonal(2.0, 3.0, 6.0)  # product of weights hits l4
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            qf.bound_entangled_ghz_diagonal(0.0, 1.0, 1.0)


class TestDuer:
    def test_trace_and_ghz_eigenvalue(self):
        for n in (3, 4, 5):
            rho = qf.duer_state(n)
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
            g = qf.ghz(n).amplitudes
            assert np.allclose(rho.matrix @ g, g / (n + 1), atol=1e-12)

    def test_three_qubit_spectrum(self):
        expected = np.array([0.0] + [0.125] * 6 + [0.25])
        assert np.allclose(np.linalg.eigvalsh(qf.duer_state(3).matrix), expected, atol=1e-12)

    def test_pi_phase_partner_in_kernel(self):
        rho = qf.duer_state(3)
        kernel_state = qf.ghz_basis_state((0, 0, 0), np.pi).amplitudes
        assert np.max(np.abs(rho.matrix @ kernel_state)) <= 1e-12

    def test_qfi_matrix_closed_form(self):
        for n in range(4, 9):
            gamma = qf.qfi_matrix(qf.duer_state(n)).matrix
            expected = n * np.diag(
                [(3 * n - 1) / (3 * n + 3), (3 * n - 1) / (3 * n + 3), n / (n + 1)]
            )
            assert np.max(np.abs(gamma - expected)) <= 1e-9

    def test_three_qubit_member_is_the_exception(self):
        # the transverse entries lose the would-be kernel contributions
        gamma = qf.qfi_matrix(qf.duer_state(3)).matrix
        assert np.max(np.abs(gamma - np.diag([0.5, 0.5, 2.25]))) <= 1e-9

    def test_detected_by_average_not_by_max(self):
        for n in (4, 5, 6):
            value, _ = qf.qfi_max(qf.duer_state(n))
            assert value < n
            avg = qf.qfi_avg(qf.duer_state(n))
            assert abs(avg - (9 * n - 2) * n / (9 * n + 9)) <= 1e-9
            assert avg > 2 * n / 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            qf.duer_state(2)


class TestSmolin:
    def test_isotropic_qfi_matrix(self):
        for pairs in (2, 3, 4):
            n = 2 * pairs
            gamma = qf.qfi_matrix(qf.smolin_state(pairs)).matrix
            assert np.max(np.abs(gamma - n * np.eye(3))) <= 1e-9

    def test_spectrum(self):
        for pairs in (2, 3):
            n = 2 * pairs
            vals = np.linalg.eigvalsh(qf.smolin_state(pairs).matrix)
            nonzero = vals[vals > 1e-12]
            assert np.allclose(nonzero, 2.0 ** (2 - n), atol=1e-12)
            assert nonzero.size == 2 ** (n - 2)

    def test_equals_corner_state_mixture(self):
        # mixture of two-level corner states over complement classes whose
        # excitation number shares the parity of the pair count; for an odd
        # pair count the Pauli form carries negative corner coherences, so the
        # corner states pick up the pi relative phase
        for pairs in (2, 3):
            n = 2 * pairs
            phi = 0.0 if pairs % 2 == 0 else np.pi
            acc = np.zeros((2**n, 2**n), dtype=complex)
            count = 0
            for idx in range(2 ** (n - 1)):  # representatives with leading bit 0
                bits = [(idx >> (n - 2 - q)) & 1 for q in range(n - 1)]
                weight = sum(bits)
                if min(weight, n - weight) % 2 == pairs % 2:
                    psi = qf.ghz_basis_state([0] + bits, phi)
                    acc += np.outer(psi.amplitudes, psi.amplitudes.conj())
                    count += 1
            assert count == 2 ** (n - 2)
            assert np.max(np.abs(acc / count - qf.smolin_state(pairs).matrix)) <= 1e-10

    def test_average_detects(self):
        for pairs in (2, 3):
            n = 2 * pairs
            assert qf.qfi_avg(qf.smolin_state(pairs)) > 2 * n / 3

    def test_minimum_pairs(self):
        with pytest.raises(ValueError):
            qf.smolin_state(1)

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_matches_kron_reference(self, pairs):
        n = 2 * pairs
        ref = np.eye(2**n, dtype=complex)
        for ax in "xyz":
            ref += (-1) ** pairs * reduce(np.kron, [PAULIS[ax]] * n)
        assert np.array_equal(qf.smolin_state(pairs).matrix, ref / 2**n)


class TestQubitCap:
    CAP_MESSAGE = "exceeds the dense-storage cap"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qf.ghz(40),
            lambda: qf.dicke(40, 20),
            lambda: qf.plus_state(40),
            lambda: qf.ones_state(40),
            lambda: qf.duer_state(40),
            lambda: qf.smolin_state(20),
            lambda: qf.ghz_basis_state([0, 1] * 20),
        ],
        ids=["ghz", "dicke", "plus", "ones", "duer", "smolin", "ghz_basis"],
    )
    def test_constructors_refuse_at_the_cap(self, build):
        with pytest.raises(ValueError, match=self.CAP_MESSAGE):
            build()

    @pytest.mark.parametrize(
        "build", [lambda: qf.smolin_state(4), lambda: qf.duer_state(8)], ids=["smolin", "duer"]
    )
    def test_cap_checked_before_allocating(self, build):
        cap = qf.get_max_qubits()
        qf.set_max_qubits(4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=self.CAP_MESSAGE):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            qf.set_max_qubits(cap)
        assert peak < 64 * 2**10


class TestGhzBasis:
    def test_zero_bits_recover_ghz(self):
        psi = qf.ghz_basis_state((0, 0, 0, 0))
        assert np.array_equal(psi.amplitudes, qf.ghz(4).amplitudes)

    def test_family_is_orthonormal(self):
        n = 4
        states = []
        for idx in range(2 ** (n - 1)):
            bits = [0] + [(idx >> (n - 2 - q)) & 1 for q in range(n - 1)]
            for phi in (0.0, np.pi):
                states.append(qf.ghz_basis_state(bits, phi).amplitudes)
        gram = np.stack(states).conj() @ np.stack(states).T
        assert np.max(np.abs(gram - np.eye(2**n))) <= 1e-12

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            qf.ghz_basis_state((0, 2, 0))


class TestRandomPure:
    def test_angle_transform_boundaries(self):
        exponents = 1.0 / (2.0 * np.arange(1, 8))
        assert np.allclose(np.arcsin(1.0**exponents), np.pi / 2)
        assert np.allclose(np.arcsin(0.0**exponents), 0.0)

    def test_states_valid_and_deterministic(self):
        a = qf.random_pure_3qubit(np.random.default_rng(123))
        b = qf.random_pure_3qubit(np.random.default_rng(123))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.sum(np.abs(a.amplitudes) ** 2) - 1.0) <= 1e-12

    def test_first_moment_matches_haar(self):
        # oracle: normalized complex Gaussian vectors are exactly Haar
        rng = np.random.default_rng(7)
        draws = 100_000
        # one generator repeated draws the same numbers as `draws` successive
        # random_pure_3qubit(rng) calls (TestBatchSamplers pins the two equal)
        probs = np.abs(zoo._random_pure_batch([rng] * draws)[:, 0]) ** 2
        assert abs(probs.mean() - 1 / 8) <= 0.003
        gauss = rng.standard_normal((draws, 8)) + 1j * rng.standard_normal((draws, 8))
        gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
        assert abs(probs.mean() - np.mean(np.abs(gauss[:, 0]) ** 2)) <= 0.006


class TestRandomXForm:
    def test_first_condition_violated_in_dme_mode(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = qf.random_ghz_diagonal(rng, "dme_violating")
            assert qf.dme_condition(rho, 1).violated

    def test_some_condition_violated_in_family_mode(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rho = qf.random_ghz_diagonal(rng, "full_family")
            assert any(r.violated for r in qf.dme_family(rho))

    def test_bound_entangled_mode_is_ppt(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = qf.random_ghz_diagonal(rng, "bound_entangled")
            assert all(qf.is_ppt(rho, [q]) for q in range(3))

    def test_seed_reproducibility(self):
        a = qf.random_ghz_diagonal(np.random.default_rng(5), "dme_violating")
        b = qf.random_ghz_diagonal(np.random.default_rng(5), "dme_violating")
        assert np.array_equal(a.matrix, b.matrix)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            qf.random_ghz_diagonal(np.random.default_rng(0), "everything")


# Per-sample reference: the single-state sampler bodies the batch samplers
# replaced, each state built and validated on its own.


def _reference_pure(rng):
    u = rng.random(7)
    alphas = np.arcsin(u ** (1.0 / (2.0 * np.arange(1, 8))))
    phis = rng.uniform(0.0, 2.0 * np.pi, 7)
    sines = np.sin(alphas)
    cosines = np.cos(alphas)
    amps = np.empty(8, dtype=complex)
    amps[0] = cosines[6]
    tails = np.cumprod(sines[::-1])
    cos_factors = np.append(cosines[5::-1], 1.0)
    amps[1:] = cos_factors * tails * np.exp(1j * phis[::-1])
    return qf.PureState(3, amps).amplitudes


def _reference_x_form(lambdas, mus):
    lam = tuple(float(x) for x in lambdas)
    mus = tuple(float(x) for x in mus)
    assert min(lam) >= 0 and sum(lam) > 0
    assert all(mus[j] ** 2 <= lam[j] * lam[7 - j] + 1e-12 for j in range(4))
    mat = np.zeros((8, 8), dtype=complex)
    for j in range(8):
        mat[j, j] = lam[j]
    for j in range(4):
        mat[j, 7 - j] = mus[j]
        mat[7 - j, j] = mus[j]
    return qf.DensityMatrix(3, mat / sum(lam)).matrix


def _reference_ghz_diagonal(rng, mode):
    if mode in ("dme_violating", "full_family"):
        batch = 64
        for _ in range(zoo.REJECTION_BUDGET // batch + 1):
            lam = rng.random((batch, 4))
            mus = (2.0 * rng.random((batch, 4)) - 1.0) * lam
            totals = lam.sum(axis=1)
            rhs = totals[:, None] - lam
            viol = np.abs(mus) > rhs + 1e-12 * (2.0 * totals[:, None])
            hits = viol.any(axis=1) if mode == "full_family" else viol[:, 0]
            idx = int(np.argmax(hits))
            if hits[idx]:
                l, m = lam[idx], mus[idx]
                return _reference_x_form((*l, l[3], l[2], l[1], l[0]), m)
    else:
        for _ in range(zoo.REJECTION_BUDGET):
            l2, l3, l4 = 0.1 + 9.9 * rng.random(3)
            if abs(l2 * l3 - l4) >= 1e-3:
                lambdas = (1.0, l2, l3, l4, 1.0 / l4, 1.0 / l3, 1.0 / l2, 1.0)
                return _reference_x_form(lambdas, (1.0, 0.0, 0.0, 0.0))
    raise AssertionError("reference sampler exhausted its budget")


def _streams(seed, start, stop):
    return [np.random.default_rng([seed, i]) for i in range(start, stop)]


X_FORM_MODES = ("dme_violating", "full_family", "bound_entangled")
# the first range crosses a 256-stream rejection block, the second the
# 2048-sample campaign chunk boundary and a block boundary of its own batch
INDEX_RANGES = ((0, 300), (1990, 2300))


class TestBatchSamplers:
    @pytest.mark.parametrize("start, stop", INDEX_RANGES)
    def test_pure_batch_equals_per_sample_reference(self, start, stop):
        batch = zoo._random_pure_batch(_streams(5, start, stop))
        reference = np.array([_reference_pure(rng) for rng in _streams(5, start, stop)])
        assert np.array_equal(batch, reference)

    @pytest.mark.parametrize("start, stop", INDEX_RANGES)
    @pytest.mark.parametrize("mode", X_FORM_MODES)
    def test_x_form_batch_equals_per_sample_reference(self, mode, start, stop):
        batch = zoo._random_ghz_diagonal_batch(_streams(5, start, stop), mode)
        reference = np.array([_reference_ghz_diagonal(rng, mode) for rng in _streams(5, start, stop)])
        assert np.array_equal(batch, reference)

    def test_public_samplers_are_batches_of_one(self):
        # a caller's generator is not dropped, so it must also be left where
        # the per-sample reference leaves it: the sampler draws nothing ahead
        for i in range(20):
            rng, ref_rng = np.random.default_rng([5, i]), np.random.default_rng([5, i])
            psi = qf.random_pure_3qubit(rng)
            assert np.array_equal(psi.amplitudes, _reference_pure(ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for mode in X_FORM_MODES:
                rng, ref_rng = np.random.default_rng([5, i]), np.random.default_rng([5, i])
                rho = qf.random_ghz_diagonal(rng, mode)
                assert np.array_equal(rho.matrix, _reference_ghz_diagonal(ref_rng, mode))
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_ppt_family_redraws_only_rejected_rows(self):
        # the first draws of streams 5818 and 10279 of seed 5 fall within 1e-3
        # of the boundary l2 * l3 = l4, so those two streams alone draw again
        indices = (5817, 5818, 10279, 10280)
        for i in indices[1:3]:
            l = 0.1 + 9.9 * np.random.default_rng([5, i]).random(3)
            assert abs(l[0] * l[1] - l[2]) < 1e-3
        rngs = [np.random.default_rng([5, i]) for i in indices]
        refs = [np.random.default_rng([5, i]) for i in indices]
        batch = zoo._random_ghz_diagonal_batch(rngs, "bound_entangled")
        assert np.array_equal(batch, [_reference_ghz_diagonal(rng, "bound_entangled") for rng in refs])
        assert [rng.bit_generator.state for rng in rngs] == [rng.bit_generator.state for rng in refs]

    def test_each_sample_validated_once(self, monkeypatch):
        from qfisher import campaigns, core

        calls = []
        for name in ("_check_pure_stack", "_check_density_stack"):

            def counting(stack, check=getattr(core, name)):
                calls.append(stack.shape)
                return check(stack)

            for module in (core, zoo, campaigns):
                monkeypatch.setattr(module, name, counting, raising=False)
        qf.random_pure_3qubit(np.random.default_rng(0))
        qf.random_ghz_diagonal(np.random.default_rng(0), "dme_violating")
        assert calls == [(8,), (8, 8)]
        campaigns._table2_chunk(0, 5, 0, local=False)
        campaigns._table3_chunk(0, 5, 0, "dme_violating")
        campaigns._scan_chunk(0, 5, 0)
        # the criteria also build single reference states (the GHZ state)
        assert [shape for shape in calls[2:] if shape[0] == 5] == [(5, 8), (5, 8, 8), (5, 8, 8)]

    def test_bad_x_form_block_names_the_sample(self):
        lam = np.full((5, 8), 0.125)
        mus = np.zeros((5, 4))
        mus[3, 1] = 0.5
        with pytest.raises(InvariantError, match=r"^sample 3: block 2 violates positivity"):
            zoo._check_x_form(lam, mus)
        with pytest.raises(InvariantError, match=r"^block 2 violates positivity: mu\^2 = 0.25 > 0.015625$"):
            zoo._check_x_form(lam[3], mus[3])
        lam[2, 5] = -0.125
        with pytest.raises(InvariantError, match=r"^sample 2: diagonal weights must be non-negative$"):
            zoo._check_x_form(lam, mus)

    def test_budget_exhausted_in_the_batch_path(self, monkeypatch):
        from qfisher import campaigns

        monkeypatch.setattr(zoo, "REJECTION_BUDGET", 0)
        with pytest.raises(RuntimeError, match="rejection budget of 0 draws exhausted"):
            zoo._random_ghz_diagonal_batch(_streams(0, 0, 3), "bound_entangled")
        # one round of 64 candidates leaves some of 2048 streams without a hit
        with pytest.raises(RuntimeError, match="rejection budget of 0 draws exhausted"):
            campaigns._table3_chunk(0, 2048, 0, "dme_violating")


class TestStateSpecs:
    def test_zoo_names(self):
        assert qf.parse_state_spec("ghz:4").num_qubits == 4
        assert qf.parse_state_spec("dicke:4:2").num_qubits == 4
        assert isinstance(qf.parse_state_spec("duer:3"), qf.DensityMatrix)
        assert qf.parse_state_spec("smolin:2").num_qubits == 4
        assert qf.parse_state_spec("psi_s4:+").num_qubits == 4
        assert qf.parse_state_spec("plus:2").num_qubits == 2
        assert qf.parse_state_spec("ones:2").num_qubits == 2

    def test_json_path(self, tmp_path):
        path = tmp_path / "probe.json"
        qf.save_state(qf.ghz(3), path)
        back = qf.parse_state_spec(str(path))
        assert np.array_equal(back.amplitudes, qf.ghz(3).amplitudes)

    def test_x_form_parameter_file(self, tmp_path):
        import json

        path = tmp_path / "xform.json"
        path.write_text(json.dumps({"lambdas": [1, 0, 0, 0, 0, 0, 0, 1], "mus": [1, 0, 0, 0]}))
        rho = qf.parse_state_spec(f"ghzdiag:{path}")
        assert np.allclose(rho.matrix, qf.density_from_pure(qf.ghz(3)).matrix)

    def test_unknown_specs(self):
        with pytest.raises(ValueError):
            qf.parse_state_spec("w:3")
        with pytest.raises(ValueError):
            qf.parse_state_spec("dicke:4")
