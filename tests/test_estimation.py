import numpy as np
import pytest

import qfisher as qf
from qfisher.estimation import _likelihood_table, _refine_peak


def z_basis_povm(num_qubits):
    """Computational-basis measurement: one projector per basis state."""
    return qf.Povm(tuple(np.diag(e) for e in np.eye(2**num_qubits)))


def per_trial_estimate(state, gen, povm, theta0, m, rng, grid):
    """One estimate built from scratch: evolved probe, outcome distribution,
    multinomial counts and likelihood table."""
    rho = qf.evolve(state, gen, theta0).matrix
    probs = np.clip([np.real(np.trace(rho @ e)) for e in povm.elements], 0.0, None)
    counts = rng.multinomial(m, probs / probs.sum())
    return _refine_peak(counts, *_likelihood_table(state, gen, povm, grid))


class TestEvolve:
    def test_zero_phase_is_identity(self):
        rho = qf.mix_with_identity(qf.ghz(3), 0.7)
        out = qf.evolve(rho, qf.collective_spin(3, "z"), 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_ghz_corner_phase(self):
        # the corner coherence of the GHZ projector rotates N times faster
        for n, theta in ((3, 0.3), (4, 0.11)):
            rho = qf.density_from_pure(qf.ghz(n))
            out = qf.evolve(rho, qf.collective_spin(n, "z"), theta)
            corner = out.matrix[0, 2**n - 1]
            assert abs(corner - 0.5 * np.exp(-1j * n * theta)) <= 1e-12

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = qf.DensityMatrix(3, (a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        h = qf.spin_along(3, np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        out = qf.evolve(rho, h, 1.234)
        assert np.allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qf.evolve(qf.ghz(2), qf.collective_spin(3, "z"), 0.1)


class TestMlEstimate:
    def test_noiseless_counts_recover_phase(self):
        n, theta0 = 4, 0.35
        state = qf.density_from_pure(qf.ghz(n))
        gen = qf.collective_spin(n, "z")
        povm = qf.parity_povm(n, "x")
        probs = qf.model_probabilities(state, gen, povm, [theta0])[0]
        grid = np.linspace(theta0 - 0.3, theta0 + 0.3, 401)
        est = _refine_peak(1000 * probs, *_likelihood_table(state, gen, povm, grid))
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
    def test_probe_evolved_once_per_run(self, trials, monkeypatch):
        from qfisher import estimation

        calls = []

        def counting_evolve(*args):
            calls.append(args)
            return qf.evolve(*args)

        monkeypatch.setattr(estimation, "evolve", counting_evolve)
        theta0 = np.pi / 4
        qf.run_phase_estimation(
            qf.ghz(2), qf.collective_spin(2, "z"), qf.parity_povm(2, "x"), theta0,
            m=50, trials=trials, window=(0.0, np.pi / 2),
        )
        assert len(calls) == 1

    def test_input_validation(self):
        args = (qf.ghz(2), qf.collective_spin(2, "z"))
        kw = dict(window=(0.0, np.pi / 2))
        for m, trials in ((0, 5), (10, 0), (10, -1)):
            with pytest.raises(ValueError, match="must be positive"):
                qf.run_phase_estimation(*args, qf.parity_povm(2, "x"), 0.3, m, trials, **kw)
        with pytest.raises(TypeError, match="Povm"):
            qf.run_phase_estimation(*args, [np.eye(4)], 0.3, 10, 5, **kw)

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
