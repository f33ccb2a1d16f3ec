from itertools import product

import numpy as np
import pytest

import qfisher as qf
from qfisher.estimation import _likelihood_table, _refine_peak


def z_basis_povm(num_qubits):
    """Computational-basis measurement: one projector per basis state."""
    return qf.Povm(tuple(np.diag(e) for e in np.eye(2**num_qubits)))


def per_trial_estimate(state, gen, povm, theta0, m, rng, grid):
    """One estimate built from scratch: the model call on the grid plus
    theta0, multinomial counts from P(theta0) and the likelihood peak."""
    grid, log_probs, probs = _likelihood_table(state, gen, povm, grid, theta0)
    probs = np.clip(probs, 0.0, None)
    counts = rng.multinomial(m, probs / probs.sum())
    return _refine_peak(counts, grid, log_probs)


class TestOutcomeDistribution:
    """P(mu | theta0), which the run draws its counts from, against a dense
    evolution Tr(U rho U^dag E_mu) with U = exp(-i theta0 G) built here."""

    @staticmethod
    def dense_probabilities(rho, g, povm, theta):
        lam, v = np.linalg.eigh(g)
        u = (v * np.exp(-1j * theta * lam)) @ v.conj().T
        evolved = u @ rho @ u.conj().T
        return np.array([np.real(np.trace(evolved @ e)) for e in povm.elements])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_evolution(self, n):
        rng = np.random.default_rng(40 + n)
        a = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
        probes = [
            qf.ghz(n),
            qf.plus_state(n),
            qf.mix_with_identity(qf.ghz(n), 0.7),
            qf.DensityMatrix(n, a @ a.conj().T / np.trace(a @ a.conj().T).real),
        ]
        direction = rng.standard_normal(3)
        gens = [qf.collective_spin(n, "z").matrix, qf.spin_along(n, direction / np.linalg.norm(direction)).matrix]
        grid = np.linspace(0.0, np.pi, 7)
        for probe, g, povm in product(probes, gens, (qf.parity_povm(n, "x"), qf.x_basis_povm(n))):
            rho = qf.density_from_pure(probe).matrix if isinstance(probe, qf.PureState) else probe.matrix
            for theta in (0.0, np.pi / (2 * n), 1.234):
                got = _likelihood_table(probe, g, povm, grid, theta)[2]
                ref = self.dense_probabilities(rho, g, povm, theta)
                assert np.max(np.abs(got - ref)) <= 1e-12


class TestMlEstimate:
    def test_noiseless_counts_recover_phase(self):
        n, theta0 = 4, 0.35
        state = qf.density_from_pure(qf.ghz(n))
        gen = qf.collective_spin(n, "z")
        povm = qf.parity_povm(n, "x")
        grid = np.linspace(theta0 - 0.3, theta0 + 0.3, 401)
        grid, log_probs, probs = _likelihood_table(state, gen, povm, grid, theta0)
        est = _refine_peak(1000 * probs, grid, log_probs)
        assert abs(est - theta0) <= 2 * (grid[1] - grid[0])


class TestLimits:
    def test_reference_values(self):
        assert qf.precision_limits(4, 1) == (0.5, 0.25)
        assert qf.precision_limits(100, 1) == (0.1, 0.01)

    def test_single_qubit_limits_coincide(self):
        sn, hl = qf.precision_limits(1, 7)
        assert sn == hl

    def test_validation(self):
        with pytest.raises(ValueError):
            qf.precision_limits(0, 1)


class TestPhaseEstimationRuns:
    def test_ghz_probe_near_cramer_rao(self):
        n, m, trials = 4, 1000, 60
        theta0 = np.pi / (2 * n)
        run = qf.run_phase_estimation(
            qf.ghz(n),
            qf.collective_spin(n, "z"),
            qf.parity_povm(n, "x"),
            theta0,
            m=m,
            trials=trials,
            seed=0,
            window=(theta0 - np.pi / (2 * n), theta0 + np.pi / (2 * n)),
        )
        crb = 1.0 / np.sqrt(m * n**2)
        assert abs(run.empirical_std - crb) <= 0.25 * crb
        assert run.empirical_std >= (1 - 3 / np.sqrt(trials)) * crb
        # counts drawn from the wrong distribution would bias the estimates
        assert abs(run.estimator_values.mean() - theta0) <= 4 * crb / np.sqrt(trials)

    def test_trial_streams_reproducible(self):
        theta0 = np.pi / 4
        kw = dict(m=200, trials=10, seed=3, window=(theta0 - 0.5, theta0 + 0.5))
        a = qf.run_phase_estimation(
            qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), theta0, **kw
        )
        b = qf.run_phase_estimation(
            qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), theta0, **kw
        )
        assert np.array_equal(a.estimator_values, b.estimator_values)

    @pytest.mark.parametrize("probe", ["ghz", "plus"])
    def test_matches_per_trial_ml_estimate(self, probe):
        n, m, trials, seed = 3, 300, 12, 5
        gen = qf.collective_spin(n, "z")
        if probe == "ghz":
            state, povm, theta0 = qf.ghz(n), qf.parity_povm(n, "x"), np.pi / (2 * n)
            window = (0.0, np.pi / n)
        else:
            state, povm, theta0 = qf.plus_state(n), qf.x_basis_povm(n), np.pi / 2
            window = (0.0, np.pi)
        run = qf.run_phase_estimation(
            state, gen, povm, theta0, m=m, trials=trials, seed=seed, window=window, grid_points=128
        )
        grid = np.linspace(*window, 128)
        loop = [
            per_trial_estimate(state, gen, povm, theta0, m, np.random.default_rng([seed, t]), grid)
            for t in range(trials)
        ]
        assert np.max(np.abs(run.estimator_values - loop)) <= 1e-12

    @pytest.mark.parametrize("trials", [1, 7])
    def test_generator_diagonalised_once_per_run(self, trials, linalg_dtypes):
        args = (qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), np.pi / 4)
        seen = linalg_dtypes("eigh")
        qf.run_phase_estimation(*args, m=50, trials=trials, window=(0.0, np.pi / 2))
        assert len(seen["eigh"]) == 1

    def test_input_validation(self):
        args = (qf.ghz(2), qf.collective_spin(2, "z"))
        kw = dict(window=(0.0, np.pi / 2))
        for m, trials in ((0, 5), (10, 0), (10, -1)):
            with pytest.raises(ValueError, match="must be positive"):
                qf.run_phase_estimation(*args, qf.parity_povm(2, "x"), 0.3, m, trials, **kw)
        with pytest.raises(TypeError, match="Povm"):
            qf.run_phase_estimation(*args, [np.eye(4)], 0.3, 10, 5, **kw)
        with pytest.raises(ValueError, match="dimensions do not match"):
            qf.run_phase_estimation(qf.ghz(2), qf.collective_spin(3, "z"), qf.parity_povm(3, "x"), 0.3, 10, 5, **kw)

    def test_flat_likelihood_and_short_grid_rejected(self):
        kw = dict(m=10, trials=3, window=(0.0, 1.0))
        flat = (qf.ones_state(2), qf.collective_spin(2, "z"), z_basis_povm(2), 0.3)
        with pytest.raises(ValueError, match="flat likelihood"):
            qf.run_phase_estimation(*flat, **kw)
        fringe = (qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), 0.3)
        with pytest.raises(ValueError, match="at least three"):
            qf.run_phase_estimation(*fringe, grid_points=2, **kw)

    def test_window_required(self):
        with pytest.raises(ValueError):
            qf.run_phase_estimation(
                qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), 0.3, 10, 5
            )
