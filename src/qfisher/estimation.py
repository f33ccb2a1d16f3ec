"""Phase-estimation simulator: evolve, measure, estimate, compare to limits.

A probe state is conjugated by exp(-i theta H), its POVM outcome
distribution is computed once, m outcomes are drawn from it per trial, and
a grid maximum-likelihood estimator recovers theta. Repeating the trial
gives an empirical standard deviation to hold against the Cramer-Rao bound
1 / sqrt(m F) and the shot-noise / Heisenberg floors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, PureState, _as_matrix, _state_matrix
from .fisher import Povm, model_probabilities

__all__ = [
    "EstimationRun",
    "evolve",
    "precision_limits",
    "run_phase_estimation",
]


@dataclass(frozen=True)
class EstimationRun:
    """Outcome of repeated phase estimates at one true phase."""

    true_theta: float
    m: int
    trials: int
    estimator_values: np.ndarray
    empirical_std: float

    def __post_init__(self):
        vals = np.asarray(self.estimator_values, dtype=float)
        if vals.size != self.trials:
            raise ValueError("one estimate per trial required")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "estimator_values", vals)
        if self.empirical_std < 0:
            raise ValueError("standard deviation cannot be negative")


def evolve(state, generator, theta: float) -> DensityMatrix:
    """Conjugate a state by exp(-i theta G) through the eigenbasis of G."""
    g = _as_matrix(generator)
    rho = _state_matrix(state)
    if rho.shape != g.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, generator {g.shape}")
    num_qubits = state.num_qubits if isinstance(state, (PureState, DensityMatrix)) else int(
        round(np.log2(g.shape[0]))
    )
    lam, v = np.linalg.eigh(g)
    phases = np.exp(-1j * theta * lam)
    u = (v * phases) @ v.conj().T
    return DensityMatrix(num_qubits, u @ rho @ u.conj().T)


def _likelihood_table(state, generator, povm: Povm, theta_grid) -> tuple[np.ndarray, np.ndarray]:
    """Validated grid and log P[t, mu] on it; the table never depends on the counts."""
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("theta grid needs at least three points")
    probs = model_probabilities(state, generator, povm, grid)
    if np.max(probs.max(axis=0) - probs.min(axis=0)) < 1e-14:
        raise ValueError("flat likelihood: outcome probabilities do not depend on theta")
    return grid, np.log(np.clip(probs, 1e-300, None))


def _refine_peak(counts, grid: np.ndarray, log_probs: np.ndarray) -> float:
    """Grid argmax of counts @ log P (ties to the lowest point), one parabolic step."""
    loglik = np.asarray(counts, dtype=float) @ log_probs.T
    peak = int(np.argmax(loglik))
    if 0 < peak < grid.size - 1:
        left, mid, right = loglik[peak - 1 : peak + 2]
        denom = left - 2.0 * mid + right
        if abs(denom) >= 1e-300:
            offset = np.clip(0.5 * (left - right) / denom, -1.0, 1.0)
            return float(grid[peak] + offset * (grid[peak + 1] - grid[peak]))
    return float(grid[peak])


def precision_limits(num_qubits: int, m: int) -> tuple[float, float]:
    """Shot-noise and Heisenberg phase-uncertainty floors for N qubits, m shots."""
    if num_qubits < 1 or m < 1:
        raise ValueError("qubit count and repetitions must be positive")
    return 1.0 / np.sqrt(m * num_qubits), 1.0 / (np.sqrt(m) * num_qubits)


def run_phase_estimation(
    state,
    generator,
    povm: Povm,
    true_theta: float,
    m: int,
    trials: int,
    seed=0,
    window: tuple[float, float] | None = None,
    grid_points: int = 512,
) -> EstimationRun:
    """Simulate ``trials`` independent m-shot estimates of one fixed phase.

    The likelihood grid spans ``window`` (callers restrict it to a stretch
    where the fringe pattern is unambiguous). Its table and the outcome
    distribution at the true phase are computed once per run; each trial
    draws multinomial counts from its own seed-and-index RNG stream, so
    results do not depend on scheduling, and then only refines the
    likelihood peak.
    """
    if m < 1 or trials < 1:
        raise ValueError("shots per estimate and trial count must be positive")
    if window is None:
        raise ValueError("an identifiability window (lo, hi) around the phase is required")
    lo, hi = window
    if not lo < true_theta < hi:
        raise ValueError("true phase must lie inside the estimation window")
    rho = evolve(state, generator, true_theta).matrix
    # the table rejects a non-Povm before povm.elements is read below
    grid, log_probs = _likelihood_table(state, generator, povm, np.linspace(lo, hi, grid_points))
    probs = np.array([float(np.real(np.trace(rho @ e))) for e in povm.elements])
    if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
        raise ValueError(f"outcome probabilities out of range: {probs}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    estimates = np.empty(trials)
    for trial in range(trials):
        counts = np.random.default_rng([seed, trial]).multinomial(m, probs)
        estimates[trial] = _refine_peak(counts, grid, log_probs)
    return EstimationRun(
        true_theta=float(true_theta),
        m=int(m),
        trials=int(trials),
        estimator_values=estimates,
        empirical_std=float(np.std(estimates, ddof=1)) if trials > 1 else 0.0,
    )
