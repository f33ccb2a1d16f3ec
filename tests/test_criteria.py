from functools import reduce

import numpy as np
import pytest

import qfisher as qf
from qfisher import fisher, zoo
from qfisher.core import PAULI_X, PAULI_Y, PAULI_Z, InvariantError
from qfisher.criteria import STRICT_MARGIN, _antidiagonal, _ghz_fidelity, _witness_seesaw, evaluate


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
        # which a seesaw that conjugates the wrong factor still finds the optimum.
        # The lock-step restarts draw their starts from one rng in the order of
        # successive reference runs, so restart r must match reference run r.
        rng = np.random.default_rng([n, 99])
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        restarts = 2
        for target in (qf.ghz(n).amplitudes, psi / np.linalg.norm(psi)):
            for seed in range(3):
                rho = random_rho(n, np.random.default_rng([n, seed]), pure)
                ref_rng = np.random.default_rng(seed)
                refs = [kron_seesaw(rho, target, n, ref_rng) for _ in range(restarts)]
                values = _witness_seesaw(rho, target, n, np.random.default_rng(seed), restarts)
                assert values.shape == (restarts,)
                for value, ref in zip(values, refs):
                    assert abs(value - ref) <= 1e-12

    def test_rejects_negative_restarts(self):
        for optimize in (False, True):
            with pytest.raises(ValueError, match="restarts"):
                qf.ghz_witness(qf.ghz(3), optimize_local_unitaries=optimize, restarts=-1)

    def test_no_restarts_is_the_identity_fidelity(self):
        state = qf.DensityMatrix(3, random_rho(3, np.random.default_rng(6), pure=False))
        value = qf.ghz_witness(state, optimize_local_unitaries=True, restarts=0, seed=0)
        assert value == qf.ghz_witness(state)
        assert _witness_seesaw(state.matrix, qf.ghz(3).amplitudes, 3, np.random.default_rng(0), 0).shape == (0,)

    def test_converged_restarts_do_no_more_work(self, monkeypatch):
        # each restart stops on its own: the lock-step eigen-updates number
        # exactly those of the restarts run one at a time, and their values agree
        rho = random_rho(3, np.random.default_rng(9), pure=False)
        target = qf.ghz(3).amplitudes
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        values = _witness_seesaw(rho, target, 3, np.random.default_rng(1), 6)
        batched, sizes[:] = list(sizes), []
        rng = np.random.default_rng(1)
        singles = [_witness_seesaw(rho, target, 3, rng, 1)[0] for _ in range(6)]
        assert np.max(np.abs(values - singles)) <= 1e-12
        assert batched[0] == 6 and batched == sorted(batched, reverse=True) and batched[-1] < 6
        assert sum(batched) == len(sizes)

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


THREE_QUBIT_NAMES = ("fq_2", "fq_avg_2", "fq_3", "fq_avg_3", "dme", "dme_family", "witness", "ppt_all_cuts")


def zoo_states(n):
    """Pure zoo states of n qubits and the mixed ones, as two lists."""
    pure = [qf.ghz(n), qf.ghz(n, 0.7), qf.dicke(n, 1), qf.dicke(n, n - 1), qf.plus_state(n)]
    pure += [qf.ones_state(n), qf.ghz_basis_state([0, 1] + [1] * (n - 2), 0.3)]
    mixed = [qf.duer_state(n)]
    if n == 3:
        mixed += [qf.bound_entangled_ghz_diagonal(*l) for l in ((2.0, 2.0, 2.0), (0.5, 3.0, 1.2))]
        # NPT across the cut of the last qubit only
        mixed.append(qf.ghz_diagonal([1.0, 0.1, 1.0, 1.0, 1.0, 1.0, 0.1, 1.0], [0.9, 0.0, 0.0, 0.0]))
    if n == 4:
        pure.append(qf.psi_s4("-"))
    if n % 2 == 0:
        mixed.append(qf.smolin_state(n // 2))
    mixed += [qf.density_from_pure(psi) for psi in pure]
    mixed += [qf.mix_with_identity(psi, p) for psi in pure for p in (0.3, 0.6, 0.9)]
    return pure, mixed


def per_state(state):
    """Every criterion value of one state from the per-state functions."""
    n = state.num_qubits
    values = {"fq": qf.qfi_max(state)[0], "fq_avg": qf.qfi_avg(state), "witness": qf.ghz_witness(state)}
    if n == 3:
        values["dme"] = [qf.dme_condition(state, pair) for pair in (1, 2, 3, 4)]
        rho = qf.density_from_pure(state) if isinstance(state, qf.PureState) else state
        values["ppt"] = all(qf.is_ppt(rho, [q]) for q in range(n))
    return values


def reference_antidiagonal(state):
    """Both sides of the four antidiagonal conditions, entry by entry."""
    rho = qf.density_from_pure(state).matrix if isinstance(state, qf.PureState) else state.matrix
    roots = [np.sqrt(max(0.0, rho[j, j].real) * max(0.0, rho[7 - j, 7 - j].real)) for j in range(4)]
    lhs = [abs(rho[j, 7 - j]) for j in range(4)]
    return lhs, [sum(roots) - roots[j] for j in range(4)]


def per_state_flags(values, n, names):
    out = {}
    for name in names:
        if name.startswith("fq_avg_"):
            out[name] = values["fq_avg"] > qf.avg_qfi_bound(n, int(name[7:]) - 1) + STRICT_MARGIN
        elif name.startswith("fq_"):
            out[name] = values["fq"] > qf.qfi_bound(n, int(name[3:]) - 1) + STRICT_MARGIN
        elif name == "dme":
            out[name] = values["dme"][0].violated
        elif name == "dme_family":
            out[name] = any(r.violated for r in values["dme"])
        elif name == "witness":
            out[name] = values["witness"] < -STRICT_MARGIN
        elif name == "ppt_all_cuts":
            out[name] = values["ppt"]
    return out


def stack(states):
    if isinstance(states[0], qf.PureState):
        return np.stack([s.amplitudes for s in states])
    return np.stack([s.matrix for s in states])


def sampled_states(mode):
    """The first 300 draws of one sampler family, as states."""
    streams = (np.random.default_rng([0, i]) for i in range(300))
    if mode == "pure":
        return [qf.PureState(3, psi) for psi in zoo._random_pure_batch(streams)]
    return [qf.DensityMatrix(3, rho) for rho in zoo._random_ghz_diagonal_batch(streams, mode)]


class TestEvaluate:
    """One ``evaluate`` call on a stack agrees with the per-state functions."""

    def assert_matches_per_state(self, states, names):
        batch = stack(states)
        n = states[0].num_qubits
        flags = evaluate(batch, n, names)
        assert list(flags) == list(names)
        # the values behind the flags, from the engine's helpers on the stack
        gammas = fisher._spin_gammas(batch, n)
        fq_max = np.linalg.eigvalsh(gammas)[:, -1]
        fq_avg = np.trace(gammas, axis1=1, axis2=2) / 3.0
        fidelity = _ghz_fidelity(batch, n)
        lhs, rhs, _ = _antidiagonal(batch) if n == 3 else (None, None, None)
        for j, state in enumerate(states):
            values = per_state(state)
            assert {name: bool(flags[name][j]) for name in names} == per_state_flags(values, n, names), j
            assert abs(fq_max[j] - values["fq"]) <= 1e-12 * max(1.0, fq_max[j])
            assert abs(fq_avg[j] - values["fq_avg"]) <= 1e-12 * max(1.0, fq_avg[j])
            assert abs(fidelity[j] - (0.5 - values["witness"])) <= 1e-12
            if n == 3:
                ref_lhs, ref_rhs = reference_antidiagonal(state)
                for got in (lhs[j], [r.lhs for r in values["dme"]]):
                    assert np.allclose(got, ref_lhs, rtol=0, atol=1e-12)
                for got in (rhs[j], [r.rhs for r in values["dme"]]):
                    assert np.allclose(got, ref_rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_three_qubit_zoo(self, kind):
        pure, mixed = zoo_states(3)
        self.assert_matches_per_state(pure if kind == "pure" else mixed, THREE_QUBIT_NAMES)

    def test_pure_rows_match_their_projectors(self):
        pure, _ = zoo_states(3)
        from_vectors = evaluate(stack(pure), 3, THREE_QUBIT_NAMES)
        from_projectors = evaluate(stack([qf.density_from_pure(psi) for psi in pure]), 3, THREE_QUBIT_NAMES)
        for name in THREE_QUBIT_NAMES:
            assert np.array_equal(from_vectors[name], from_projectors[name]), name

    @pytest.mark.parametrize("mode", ["pure", "dme_violating", "full_family", "bound_entangled"])
    def test_sampler_families(self, mode):
        self.assert_matches_per_state(sampled_states(mode), THREE_QUBIT_NAMES)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_larger_zoo_states(self, n):
        names = [f"fq_{k}" for k in range(2, n + 1)] + [f"fq_avg_{k}" for k in range(2, n + 1)]
        for states in zoo_states(n):
            self.assert_matches_per_state(states, tuple(names) + ("witness",))

    @pytest.mark.parametrize("name", ["fq_1", "fq_4", "fq_avg", "fq_avg_0", "witness_opt", "fq_2_local"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ValueError):
            evaluate(stack([qf.ghz(3)]), 3, ("fq_2", name))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            evaluate(stack([qf.ghz(3)]), 4, ("fq_2",))
        with pytest.raises(ValueError):
            evaluate(qf.ghz(3).amplitudes, 3, ("fq_2",))

    def test_stacks_left_unchanged(self):
        # complex amplitudes: an in-place conjugate would show in the bytes
        names = ("fq_2", "fq_avg_3", "witness")
        psis = zoo._random_pure_batch(np.random.default_rng([1, i]) for i in range(50))
        rhos = np.stack([rho.matrix for rho in sampled_states("full_family")[:50]])
        for batch in (psis, rhos):
            assert batch.flags.writeable
            before = batch.tobytes()
            evaluate(batch, 3, names)
            assert batch.tobytes() == before

    def test_spin_qfi_computed_once_and_only_when_needed(self, monkeypatch):
        calls = []
        kernel = fisher._spin_gammas
        monkeypatch.setattr(fisher, "_spin_gammas", lambda *args: calls.append(1) or kernel(*args))
        psis = stack(zoo_states(3)[0])
        evaluate(psis, 3, ("dme", "dme_family", "witness", "ppt_all_cuts"))
        assert not calls
        evaluate(psis, 3, ("fq_2", "fq_avg_2", "fq_3", "fq_avg_3"))
        assert len(calls) == 1
