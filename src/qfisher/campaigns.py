"""Seeded Monte-Carlo detection campaigns, sweeps and per-state analysis.

Every campaign derives one RNG stream per sample index from the campaign
seed, so results are byte-identical for a given configuration no matter how
many workers split the index range. Detection counts are integers and merge
by summation, which keeps the reduction order irrelevant.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import zoo
from .core import PureState, collective_spin, mix_with_identity
from .criteria import (
    _detects,
    avg_qfi_bound,
    bound_ratios,
    build_report,
    critical_p,
    evaluate,
    ghz_witness,
    qfi_bound,
)
from .estimation import precision_limits, run_phase_estimation
from .fisher import optimize_local_directions, parity_povm, qfi, x_basis_povm

__all__ = [
    "CampaignConfig",
    "DetectionRate",
    "run_table2",
    "run_table3",
    "run_bound_entangled_scan",
    "bounds_curve",
    "sweep_p",
    "analyze",
    "run_phase_sim",
    "CAMPAIGNS",
    "run_campaign",
]

CHUNK_SIZE = 2048  # fixed so the sample -> stream map never depends on workers


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign invocation depends on."""

    campaign: str
    samples: int = 10_000
    seed: int = 0
    workers: int = 1
    out: str | None = None
    n: int | None = None
    k: int | None = None
    state: str | None = None
    mode: str | None = None
    m: int = 1000
    trials: int = 200
    theta: float | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")


@dataclass(frozen=True)
class DetectionRate:
    name: str
    detected: int
    samples: int

    @property
    def percent(self) -> float:
        return 100.0 * self.detected / self.samples

    @property
    def stderr(self) -> float:
        p = self.detected / self.samples
        return 100.0 * float(np.sqrt(p * (1.0 - p) / self.samples))


def _streams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    # lazy, so a sampler holds only the generators it is drawing from
    return (np.random.default_rng([seed, i]) for i in range(start, stop))


def _map_chunks(chunk_fn, samples: int, workers: int) -> np.ndarray:
    ranges = [(s, min(s + CHUNK_SIZE, samples)) for s in range(0, samples, CHUNK_SIZE)]
    # a fork pool starts every worker on the first submit, so never ask for
    # more than there are chunks or CPUs
    workers = min(workers, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        parts = [chunk_fn(a, b) for a, b in ranges]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_apply_range, [(chunk_fn, a, b) for a, b in ranges]))
    return np.sum(parts, axis=0)


def _apply_range(job):
    chunk_fn, a, b = job
    return chunk_fn(a, b)


def _counts(flags: dict[str, np.ndarray], names: tuple[str, ...]) -> np.ndarray:
    return np.array([np.count_nonzero(flags[name]) for name in names], dtype=np.int64)


# ---------------------------------------------------------------------------
# random pure three-qubit states: entanglement-detection rates
# ---------------------------------------------------------------------------

TABLE2_CRITERIA = ("fq_2", "fq_avg_2", "fq_3", "fq_avg_3", "dme", "dme_family", "witness")
TABLE2_LOCAL_CRITERIA = TABLE2_CRITERIA + ("fq_2_local", "fq_3_local", "witness_opt")


def _table2_chunk(start: int, stop: int, seed: int, local: bool) -> np.ndarray:
    psis = zoo._random_pure_batch(_streams(seed, start, stop))
    flags = evaluate(psis, 3, TABLE2_CRITERIA)
    if not local:
        return _counts(flags, TABLE2_CRITERIA)
    fq_local = np.empty(stop - start)
    witness_opt = np.empty(stop - start)
    for j, i in enumerate(range(start, stop)):
        psi = PureState(3, psis[j])
        fq_local[j], _ = optimize_local_directions(psi, restarts=4, seed=(seed, i, 1))
        witness_opt[j] = ghz_witness(psi, optimize_local_unitaries=True, restarts=5, seed=(seed, i, 2))
    flags["fq_2_local"] = _detects("fq_2", 3, fq_local)
    flags["fq_3_local"] = _detects("fq_3", 3, fq_local)
    flags["witness_opt"] = _detects("witness", 3, witness_opt)
    return _counts(flags, TABLE2_LOCAL_CRITERIA)


def run_table2(
    samples: int = 1_000_000, seed: int = 0, workers: int = 1, mode: str = "collective"
) -> list[DetectionRate]:
    """Detection percentages of the criteria over Haar-random 3-qubit pure states.

    Sample ``i`` is drawn Haar-uniformly from its own stream by the sampler
    behind ``zoo.random_pure_3qubit``, which draws a whole chunk at once.
    The rows count the states that ``criteria.evaluate`` flags under each
    name of ``TABLE2_CRITERIA``; its docstring defines the criteria. Over
    this ensemble the GHZ fidelity is Beta(1, 7), so the exact ``witness``
    rate is 2^-7.

    ``mode="local"`` additionally reports the QFI criteria after
    local-direction optimization and the witness after local-unitary
    optimization (slow; meant for reduced sample counts).
    """
    if mode not in ("collective", "local"):
        raise ValueError(f"table2 mode must be 'collective' or 'local', got {mode!r}")
    local = mode == "local"
    counts = _map_chunks(partial(_table2_chunk, seed=seed, local=local), samples, workers)
    names = TABLE2_LOCAL_CRITERIA if local else TABLE2_CRITERIA
    return [DetectionRate(n, int(c), samples) for n, c in zip(names, counts)]


# ---------------------------------------------------------------------------
# random GHZ-diagonal states: detection rates for the multipartite criteria
# ---------------------------------------------------------------------------

TABLE3_CRITERIA = ("witness", "fq_3", "fq_avg_3")


def _table3_chunk(start: int, stop: int, seed: int, mode: str) -> np.ndarray:
    rhos = zoo._random_ghz_diagonal_batch(_streams(seed, start, stop), mode)
    return _counts(evaluate(rhos, 3, TABLE3_CRITERIA), TABLE3_CRITERIA)


def run_table3(
    samples: int = 1_000_000, seed: int = 0, workers: int = 1, mode: str = "dme"
) -> list[DetectionRate]:
    """Detection percentages over random X-form states violating the
    antidiagonal conditions: the first one only (``mode="dme"``) or any of
    the four (``mode="dme_family"``)."""
    sampler_mode = {"dme": "dme_violating", "dme_family": "full_family"}.get(mode)
    if sampler_mode is None:
        raise ValueError(f"table3 mode must be 'dme' or 'dme_family', got {mode!r}")
    counts = _map_chunks(partial(_table3_chunk, seed=seed, mode=sampler_mode), samples, workers)
    return [DetectionRate(n, int(c), samples) for n, c in zip(TABLE3_CRITERIA, counts)]


# ---------------------------------------------------------------------------
# PPT bound-entangled family scan
# ---------------------------------------------------------------------------

SCAN_FIELDS = ("ppt_all_cuts", "fq_2", "fq_avg_2")


def _scan_chunk(start: int, stop: int, seed: int) -> np.ndarray:
    rhos = zoo._random_ghz_diagonal_batch(_streams(seed, start, stop), "bound_entangled")
    return _counts(evaluate(rhos, 3, SCAN_FIELDS), SCAN_FIELDS)


def run_bound_entangled_scan(samples: int = 10_000, seed: int = 0, workers: int = 1) -> list[DetectionRate]:
    """PPT verification and (absence of) QFI detections over the PPT family."""
    counts = _map_chunks(partial(_scan_chunk, seed=seed), samples, workers)
    return [DetectionRate(n, int(c), samples) for n, c in zip(SCAN_FIELDS, counts)]


# ---------------------------------------------------------------------------
# bound tables, noise sweeps, reports, phase simulation
# ---------------------------------------------------------------------------


def bounds_curve(num_qubits: int) -> list[dict]:
    """Producibility-bound table, one row per class k, plus the straight-line
    references N*k and N*(k+2)/3 useful for plotting."""
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits")
    rows = []
    for k in range(1, num_qubits + 1):
        rows.append(
            {
                "k": k,
                "fq_bound": qfi_bound(num_qubits, k),
                "fq_avg_bound": avg_qfi_bound(num_qubits, k),
                "nk": float(num_qubits * k),
                "n_k_plus_2_over_3": num_qubits * (k + 2) / 3.0,
            }
        )
    return rows


def _bisect_p(detect, tol: float) -> float | None:
    """Minimal mixing weight at which a monotone detector fires."""
    if not detect(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if detect(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sweep_p(state_name: str, resolution: float = 1e-6) -> list[dict]:
    """White-noise robustness thresholds of each criterion for a pure state.

    For every producibility class the minimal admixture weight p at which
    the QFI criteria detect p|psi><psi| + (1-p)I/2^N is bisected and
    cross-checked against the closed-form critical weight. Three-qubit
    states also get the witness and antidiagonal-test thresholds.
    """
    state = zoo.parse_state_spec(state_name)
    if not isinstance(state, PureState):
        raise ValueError(f"the noise sweep needs a pure state, got {state_name!r}")
    n = state.num_qubits

    rows = []  # (criterion, k, closed-form threshold)
    for k in range(1, n):
        ratio_max, ratio_avg = bound_ratios(state, k)
        rows += [("fq", k, critical_p(ratio_max, n)), ("fq_avg", k, critical_p(ratio_avg, n))]
    if n == 3:
        fidelity = 0.5 - ghz_witness(state)
        closed = (0.5 - 0.125) / (fidelity - 0.125) if fidelity > 0.5 else None
        rows += [("witness", None, closed), ("dme", None, None)]
    names = [f"{criterion}_{k + 1}" if k else criterion for criterion, k, _ in rows]

    # every bisection starts at p = 1 and 1/2 and many share later steps, so
    # each mixture is built and decided once, for every name of the sweep
    flags_at = {}

    def detects(name, p):
        if p not in flags_at:
            flags_at[p] = evaluate(mix_with_identity(state, p).matrix[None], n, names)
        return bool(flags_at[p][name][0])

    return [
        {
            "criterion": criterion,
            "k": k,
            "p_threshold": _bisect_p(partial(detects, name), resolution),
            "p_closed_form": closed,
        }
        for (criterion, k, closed), name in zip(rows, names)
    ]


def analyze(state_spec: str, optimize_witness: bool = False, seed: int = 0) -> dict:
    """Full criterion report for a zoo name or a state JSON file."""
    state = zoo.parse_state_spec(state_spec)
    report = build_report(state, optimize_witness=optimize_witness, seed=seed)
    out = report.to_dict()
    out["state"] = state_spec
    return out


def run_phase_sim(
    state_spec: str = "ghz:4",
    m: int = 1000,
    trials: int = 200,
    theta: float | None = None,
    seed: int = 0,
) -> dict:
    """Simulated repeated phase estimation for a fringe-type probe.

    A probe equal to the product |+>^N up to a global phase, however it was
    given, is measured in the local x bases; every other probe, GHZ
    included, by N-qubit parity in x. The default phase sits at the
    steepest point of the corresponding fringe.
    """
    state = zoo.parse_state_spec(state_spec)
    if not isinstance(state, PureState):
        raise ValueError("phase simulation expects a pure probe state")
    n = state.num_qubits
    generator = collective_spin(n, "z")
    plus_overlap = abs(np.vdot(zoo.plus_state(n).amplitudes, state.amplitudes))
    if abs(plus_overlap - 1.0) <= 1e-12:
        povm = x_basis_povm(n)
        theta0 = np.pi / 2 if theta is None else theta
        window = (theta0 - np.pi / 2, theta0 + np.pi / 2)
    else:
        povm = parity_povm(n, "x")
        theta0 = np.pi / (2 * n) if theta is None else theta
        window = (theta0 - np.pi / (2 * n), theta0 + np.pi / (2 * n))
    run = run_phase_estimation(
        state, generator, povm, theta0, m=m, trials=trials, seed=seed, window=window
    )
    fisher_info = qfi(state, generator)
    crb = 1.0 / np.sqrt(m * fisher_info) if fisher_info > 0 else float("inf")
    shot_noise, heisenberg = precision_limits(n, m)
    return {
        "state": state_spec,
        "true_theta": run.true_theta,
        "m": m,
        "trials": trials,
        "estimates": [float(x) for x in run.estimator_values],
        "std": run.empirical_std,
        "crb": float(crb),
        "ratio": float(run.empirical_std / crb) if np.isfinite(crb) else None,
        "shot_noise": float(shot_noise),
        "heisenberg": float(heisenberg),
    }


# ---------------------------------------------------------------------------
# campaign dispatch and serialization
# ---------------------------------------------------------------------------


def _rates_csv(rows: list[DetectionRate]) -> str:
    lines = ["criterion,detected,samples,percent,stderr"]
    for r in rows:
        lines.append(f"{r.name},{r.detected},{r.samples},{r.percent:.4f},{r.stderr:.4f}")
    return "\n".join(lines) + "\n"


def _rates_json(rows: list[DetectionRate], config: CampaignConfig) -> dict:
    return {
        "campaign": config.campaign,
        "samples": config.samples,
        "seed": config.seed,
        "mode": config.mode,
        "rows": [
            {
                "criterion": r.name,
                "detected": r.detected,
                "samples": r.samples,
                "percent": r.percent,
                "stderr": r.stderr,
            }
            for r in rows
        ],
    }


def _dicts_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            value = row[key]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.10g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_campaign(config: CampaignConfig) -> tuple[str, dict | None]:
    """Execute a campaign; returns (csv_text, json_payload)."""
    name = config.campaign
    # table2 and table3 check their own modes; of the rest only analyze has one
    if config.mode is not None and name not in ("table2", "table3"):
        if (name, config.mode) != ("analyze", "witness-opt"):
            raise ValueError(f"{name} defines no mode {config.mode!r}")
    if name == "table2":
        rows = run_table2(config.samples, config.seed, config.workers, config.mode or "collective")
        return _rates_csv(rows), _rates_json(rows, config)
    if name == "table3":
        rows = run_table3(config.samples, config.seed, config.workers, config.mode or "dme")
        return _rates_csv(rows), _rates_json(rows, config)
    if name == "bound-entangled-scan":
        rows = run_bound_entangled_scan(config.samples, config.seed, config.workers)
        return _rates_csv(rows), _rates_json(rows, config)
    if name == "bounds-curve":
        if config.n is None:
            raise ValueError("bounds-curve needs --n")
        rows = bounds_curve(config.n)
        if config.k is not None:
            rows = [row for row in rows if row["k"] == config.k]
            if not rows:
                raise ValueError(f"--k {config.k} is outside 1..{config.n}")
        return _dicts_csv(rows), {"campaign": name, "n": config.n, "rows": rows}
    if name == "sweep-p":
        if not config.state:
            raise ValueError("sweep-p needs --state")
        if config.k is not None:
            n = zoo.parse_state_spec(config.state).num_qubits
            if not 1 <= config.k < n:
                raise ValueError(f"--k {config.k} is outside 1..{n - 1}")
        rows = sweep_p(config.state, 1e-6)
        if config.k is not None:
            rows = [row for row in rows if row["k"] in (config.k, None)]
        return _dicts_csv(rows), {"campaign": name, "state": config.state, "rows": rows}
    if name == "analyze":
        if not config.state:
            raise ValueError("analyze needs --state")
        payload = analyze(config.state, optimize_witness=(config.mode == "witness-opt"), seed=config.seed)
        rows = [{"field": k, "value": v} for k, v in payload.items() if not isinstance(v, (list, dict))]
        return _dicts_csv(rows), payload
    if name == "phase-sim":
        payload = run_phase_sim(
            config.state or "ghz:4", config.m, config.trials, config.theta, config.seed
        )
        rows = [{"trial": i, "estimate": est} for i, est in enumerate(payload["estimates"])]
        summary = {k: v for k, v in payload.items() if k != "estimates"}
        return _dicts_csv(rows), summary
    raise ValueError(f"unknown campaign {name!r}")


CAMPAIGNS = (
    "table2",
    "table3",
    "bounds-curve",
    "sweep-p",
    "analyze",
    "phase-sim",
    "bound-entangled-scan",
)
