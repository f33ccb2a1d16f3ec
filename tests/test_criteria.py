from functools import reduce

import numpy as np
import pytest

import qfisher as qf
from qfisher.core import PAULI_X, PAULI_Y, PAULI_Z, InvariantError
from qfisher.criteria import _witness_seesaw


def brute_force_bound(n, k):
    """Max of sum(part^2) over partitions of n into parts of size <= k."""
    best = 0
    stack = [(n, k, 0)]
    while stack:
        remaining, cap, acc = stack.pop()
        if remaining == 0:
            best = max(best, acc)
            continue
        for part in range(1, min(cap, remaining) + 1):
            stack.append((remaining - part, part, acc + part**2))
    return best


def ghz_product(n, k):
    s, r = divmod(n, k)
    state = qf.ghz(k)
    for _ in range(s - 1):
        state = qf.tensor(state, qf.ghz(k))
    if r:
        state = qf.tensor(state, qf.ghz(r))
    return state


def su2(x):
    """SU(2) matrix from a unit 4-vector (quaternion parametrization)."""
    return x[0] * np.eye(2) + 1j * (x[1] * PAULI_X + x[2] * PAULI_Y + x[3] * PAULI_Z)


def kron_seesaw(rho, target, n, rng):
    """Reference seesaw that builds every operator as a d x d matrix with kron."""
    gens = [np.eye(2), 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z]
    xs = rng.standard_normal((n, 4))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)

    def embed(op, l):
        return np.kron(np.kron(np.eye(2**l), op), np.eye(2 ** (n - 1 - l)))

    best = -np.inf
    for _ in range(100):
        for l in range(n):
            v = reduce(np.kron, [np.eye(2) if m == l else su2(xs[m]) for m in range(n)])
            sigma = v @ rho @ v.conj().T
            w = np.stack([embed(g, l).conj().T @ target for g in gens])
            form = np.real(w.conj() @ sigma @ w.T)
            evals, evecs = np.linalg.eigh((form + form.T) / 2)
            xs[l] = evecs[:, -1]
            value = float(evals[-1])
        if value - best < 1e-12:
            best = max(best, value)
            break
        best = value
    return best


def random_rho(n, rng, pure):
    d = 2**n
    if pure:
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBounds:
    def test_reference_values(self):
        assert qf.qfi_bound(100, 1) == 100.0
        assert qf.qfi_bound(4, 2) == 8.0
        assert qf.qfi_bound(5, 3) == 13.0

    def test_matches_partition_maximum(self):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert qf.qfi_bound(n, k) == brute_force_bound(n, k)

    def test_avg_reference_values(self):
        assert abs(qf.avg_qfi_bound(4, 1) - 8.0 / 3.0) <= 1e-15
        assert abs(qf.avg_qfi_bound(4, 4) - 8.0) <= 1e-15
        assert abs(qf.avg_qfi_bound(4, 3) - 17.0 / 3.0) <= 1e-15

    def test_avg_closed_form_edges(self):
        for n in range(2, 11):
            assert abs(qf.avg_qfi_bound(n, 1) - 2 * n / 3) <= 1e-12
            assert abs(qf.avg_qfi_bound(n, n) - (n**2 + 2 * n) / 3) <= 1e-12
            if n >= 3:
                assert abs(qf.avg_qfi_bound(n, n - 1) - (n**2 + 1) / 3) <= 1e-12

    def test_monotone_in_class(self):
        for n in range(2, 11):
            for k in range(1, n):
                assert qf.qfi_bound(n, k) < qf.qfi_bound(n, k + 1)
                assert qf.avg_qfi_bound(n, k) <= qf.avg_qfi_bound(n, k + 1) + 1e-12

    def test_bound_record(self):
        b = qf.producibility_bound(7, 3)
        assert (b.s, b.r) == (2, 1)
        assert b.s * b.k + b.r == 7
        assert b.qfi_bound == 19.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qf.qfi_bound(4, 0)
        with pytest.raises(ValueError):
            qf.avg_qfi_bound(4, 5)

    def test_saturated_by_ghz_products(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                state = ghz_product(n, k)
                value, _ = qf.qfi_max(state)
                assert abs(value - qf.qfi_bound(n, k)) <= 1e-8
                assert abs(qf.qfi_avg(state) - qf.avg_qfi_bound(n, k)) <= 1e-8


class TestDepth:
    def test_examples(self):
        assert qf.entanglement_depth(12.0, 4, "qfi") == 4
        assert qf.entanglement_depth(4.0, 4, "qfi") == 1
        assert qf.entanglement_depth(8.0, 4, "avg") == 4

    def test_boundary_not_classified_entangled(self):
        # exactly at the separable bound (plus rounding) stays depth 1
        assert qf.entanglement_depth(3.0 + 1e-10, 3, "qfi") == 1

    def test_invalid_value(self):
        with pytest.raises(InvariantError):
            qf.entanglement_depth(17.0, 4, "qfi")
        with pytest.raises(ValueError):
            qf.entanglement_depth(-1.0, 4, "qfi")
        with pytest.raises(ValueError):
            qf.entanglement_depth(1.0, 4, "nope")

    def test_product_states_stay_depth_one(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            parts = [
                qf.make_pure(1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
                for _ in range(3)
            ]
            psi = qf.tensor(qf.tensor(parts[0], parts[1]), parts[2])
            value, _ = qf.qfi_max(psi)
            assert qf.entanglement_depth(value, 3, "qfi") == 1


class TestDme:
    def test_ghz_violates(self):
        res = qf.dme_condition(qf.density_from_pure(qf.ghz(3)), 1)
        assert res.violated and abs(res.lhs - 0.5) <= 1e-12 and res.rhs <= 1e-12

    def test_plus_state_satisfies(self):
        res = qf.dme_condition(qf.plus_state(3), 1)
        assert not res.violated
        assert abs(res.lhs - 1 / 8) <= 1e-12
        assert abs(res.rhs - 3 / 8) <= 1e-12

    def test_reciprocal_family_satisfies(self):
        res = qf.dme_condition(qf.bound_entangled_ghz_diagonal(2.0, 2.0, 2.0), 1)
        assert not res.violated
        assert res.lhs < res.rhs

    def test_family_permutes_under_bit_flip(self):
        rng = np.random.default_rng(1)
        rho = qf.random_ghz_diagonal(rng, "full_family")
        x_last = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
        flipped = qf.DensityMatrix(3, x_last @ rho.matrix @ x_last)
        before = [r.violated for r in qf.dme_family(rho)]
        after = [r.violated for r in qf.dme_family(flipped)]
        assert after == [before[1], before[0], before[3], before[2]]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            qf.dme_condition(qf.ghz(3), 5)
        with pytest.raises(ValueError):
            qf.dme_condition(qf.ghz(2), 1)


class TestWitness:
    def test_ghz_projector(self):
        assert abs(qf.ghz_witness(qf.density_from_pure(qf.ghz(3))) + 0.5) <= 1e-12

    def test_plus_state(self):
        assert abs(qf.ghz_witness(qf.plus_state(3)) - 0.25) <= 1e-12

    def test_fully_mixed_invariant_under_optimization(self):
        mm = qf.mix_with_identity(qf.ghz(3), 0.0)
        value = qf.ghz_witness(mm, optimize_local_unitaries=True, restarts=3, seed=0)
        assert abs(value - 3 / 8) <= 1e-9

    def test_optimization_recovers_rotated_ghz(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        u = np.kron(np.kron(su2(x), np.eye(2)), np.eye(2))
        rho = qf.density_from_pure(qf.ghz(3)).matrix
        rotated = qf.DensityMatrix(3, u @ rho @ u.conj().T)
        fixed = qf.ghz_witness(rotated)
        optimized = qf.ghz_witness(rotated, optimize_local_unitaries=True, restarts=8, seed=0)
        assert fixed > -0.5 + 1e-3
        assert abs(optimized + 0.5) <= 1e-9

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seesaw_matches_kron_reference(self, n, pure):
        # a complex target breaks the GHZ target's conjugation symmetry, under
        # which a seesaw that conjugates the wrong factor still finds the optimum
        rng = np.random.default_rng([n, 99])
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        for target in (qf.ghz(n).amplitudes, psi / np.linalg.norm(psi)):
            for seed in range(3):
                rho = random_rho(n, np.random.default_rng([n, seed]), pure)
                ref = kron_seesaw(rho, target, n, np.random.default_rng(seed))
                value = _witness_seesaw(rho, target, n, np.random.default_rng(seed))
                assert abs(value - ref) <= 1e-12

    def test_seesaw_forms_no_kron_product(self, monkeypatch):
        state = qf.DensityMatrix(4, random_rho(4, np.random.default_rng(5), pure=False))
        expected = qf.ghz_witness(state, optimize_local_unitaries=True, restarts=3, seed=0)

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        value = qf.ghz_witness(state, optimize_local_unitaries=True, restarts=3, seed=0)
        assert value == expected

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_optimized_fidelity_between_identity_and_top_eigenvalue(self, n, pure):
        for seed in range(6):
            rho = random_rho(n, np.random.default_rng([n, 7, seed]), pure)
            state = qf.DensityMatrix(n, rho)
            fixed = 0.5 - qf.ghz_witness(state)
            optimized = 0.5 - qf.ghz_witness(
                state, optimize_local_unitaries=True, restarts=2, seed=seed
            )
            assert optimized >= fixed
            # <GHZ|U rho U^dagger|GHZ> never exceeds the largest eigenvalue of rho
            assert optimized <= np.linalg.eigvalsh(rho)[-1] + 1e-12


class TestNoiseMachinery:
    def test_factor_edges(self):
        for n in (1, 3, 6):
            assert qf.white_noise_factor(1.0, n) == 1.0
            assert qf.white_noise_factor(0.0, n) == 0.0

    def test_factor_values(self):
        assert abs(qf.white_noise_factor(0.5, 4) - 4.0 / 9.0) <= 1e-15
        p_star = (7 + np.sqrt(113)) / 32
        assert abs(qf.white_noise_factor(p_star, 4) - 0.5) <= 1e-12

    def test_factor_monotone(self):
        ps = np.linspace(0, 1, 50)
        vals = [qf.white_noise_factor(p, 4) for p in ps]
        assert np.all(np.diff(vals) > 0)

    def test_critical_weight_round_trip(self):
        for n in range(2, 11):
            for x in np.linspace(0.05, 1.0, 20):
                p = qf.critical_p(x, n)
                assert p is not None
                assert abs(qf.white_noise_factor(p, n) - x) <= 1e-10

    def test_critical_weight_edges(self):
        assert qf.critical_p(1.0, 5) == 1.0
        assert qf.critical_p(1.2, 4) is None
        with pytest.raises(ValueError):
            qf.critical_p(0.0, 4)

    def test_bound_ratios(self):
        alpha, alpha_avg = qf.bound_ratios(qf.ghz(4), 3)
        assert abs(alpha - 10 / 16) <= 1e-10
        assert abs(alpha_avg - (17 / 3) / 8) <= 1e-10
        alpha, _ = qf.bound_ratios(qf.ghz(4), 4)
        assert abs(alpha - 1.0) <= 1e-10
        d_alpha, d_alpha_avg = qf.bound_ratios(qf.dicke(4, 2), 3)
        assert d_alpha_avg < d_alpha  # averaged criterion fires at lower noise

    def test_detection_monotone_in_p(self):
        jz = qf.collective_spin(4, "z")
        detections = [
            qf.qfi(qf.mix_with_identity(qf.ghz(4), p), jz) > qf.qfi_bound(4, 3) + 1e-9
            for p in np.linspace(0, 1, 21)
        ]
        flips = sum(1 for a, b in zip(detections, detections[1:]) if a != b)
        assert flips == 1 and detections[-1]


class TestReport:
    def test_ghz4_report(self):
        report = qf.build_report(qf.ghz(4), seed=0)
        assert report.num_qubits == 4
        assert abs(report.qfi_max - 16.0) <= 1e-9
        assert report.depth_qfi == 4 and report.depth_qfi_avg == 4
        assert report.entangled and report.genuine_multipartite
        assert report.dme is None
        assert abs(report.qfi_local_opt - 16.0) <= 1e-8

    def test_three_qubit_report_has_dme(self):
        report = qf.build_report(qf.density_from_pure(qf.ghz(3)), seed=0)
        assert report.dme is not None and report.dme_any_violated
        assert abs(report.witness_value + 0.5) <= 1e-12
        assert report.qfi_local_opt is None  # mixed input

    def test_smolin_detected_by_average_only(self):
        report = qf.build_report(qf.smolin_state(2), seed=0)
        assert report.depth_qfi == 1
        assert report.depth_qfi_avg == 2
        assert report.entangled and not report.genuine_multipartite

    def test_report_serializes(self):
        import json

        report = qf.build_report(qf.ghz(3), seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["num_qubits"] == 3
        assert len(payload["qfi_matrix"]) == 3
        assert payload["dme"][0]["pair"] == 1
