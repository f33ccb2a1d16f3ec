"""Seeded Monte-Carlo detection campaigns, sweeps and per-state analysis.

Every campaign derives one RNG stream per sample index from the campaign
seed, so results are byte-identical for a given configuration no matter how
many workers split the index range. Detection counts are integers and merge
by summation, which keeps the reduction order irrelevant.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import zoo
from .core import (
    InvariantError,
    PureState,
    _check_density_stack,
    _check_num_qubits,
    _check_pure_stack,
    collective_spin,
    mix_with_identity,
)
from .criteria import (
    _margin,
    _margins,
    _optimized_witness,
    avg_qfi_bound,
    bound_ratios,
    build_report,
    critical_p,
    evaluate,
    ghz_witness,
    qfi_bound,
)
from .estimation import precision_limits, run_phase_estimation
from .fisher import _local_directions_batch, parity_povm, qfi, qfi_matrix, x_basis_povm

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
MAX_SAMPLES = 2**32  # so each sample index is one 32-bit word of its stream's seed
# below this matrix dimension a second BLAS thread saves no wall time worth
# its CPU; X-form sweeps make no LAPACK call, so the cut decides the others.
# On 2 CPUs sweep-p dicke:8:4 (d = 256) took 0.36-0.40 s on one thread
# against 0.33-0.39 s on two, at 0.45-0.51 against 0.70-0.81 s of CPU;
# dicke:9:4 (d = 512) took 1.74-1.81 s against a median of 1.58 s on two,
# and dicke:10:5 12.5-13.0 against 9.1-9.6 s
SMALL_DIM = 512

# every campaign, and the flags it reads besides seed, workers, out and
# config, which every campaign takes
CAMPAIGNS = {
    "table2": ("samples", "full", "mode"),
    "table3": ("samples", "full", "mode"),
    "bounds-curve": ("n", "k"),
    "sweep-p": ("state", "k"),
    "analyze": ("state", "mode"),
    "phase-sim": ("state", "m", "trials", "theta"),
    "bound-entangled-scan": ("samples", "full"),
}


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
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in 1..{MAX_SAMPLES}")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.trials < 2:
            raise ValueError("trials must be at least 2: a standard deviation needs two estimates")
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


_MASK32 = 0xFFFFFFFF


def _hashmix(const: int, mult: int):
    # NumPy's SeedSequence hashmix on uint32 arrays; the running multiplier is
    # a masked Python int, since a NumPy uint32 scalar warns on overflow
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)  # XSHIFT

    return hashmix


def _state_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row i - start is ``SeedSequence([seed, i]).generate_state(4, np.uint64)``,
    from NumPy's hash of the entropy words of (seed, i), one uint32 array each."""
    n = stop - start
    words = [np.full(n, seed >> s & _MASK32, np.uint32) for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(start, stop, dtype=np.uint64).astype(np.uint32))
    words += [np.zeros(n, np.uint32)] * (4 - len(words))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    pool = [hashmix(w) for w in words[:4]]

    def mix(dst: int, value: np.ndarray):
        out = pool[dst] * 0xCA01F9DD - hashmix(value) * 0x4973F715  # MIX_MULT_L, MIX_MULT_R
        pool[dst] = out ^ (out >> 16)

    for src in range(4):
        for dst in range(4):
            if dst != src:
                mix(dst, pool[src])
    for w in words[4:]:  # entropy beyond the pool's four words
        for dst in range(4):
            mix(dst, w)
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: generate_state
    state = np.stack([hashmix(pool[j % 4]) for j in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _stream_classes():
    """``Generator``, ``PCG64`` and a seed sequence whose PCG64 state words
    are already computed. Built on first use, with ``numpy.random``, which
    would add about 14 ms to every CLI start; the seed class subclasses
    ``ISeedSequence``, as ``register`` would invalidate the ABC caches on
    every call."""
    from numpy.random import PCG64, Generator, bit_generator

    class _StateWords(bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only PCG64's 4 uint64 words are precomputed, not {n_words} {np.dtype(dtype)}")
            return self.words

    return Generator, PCG64, _StateWords


def _streams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """``np.random.default_rng([seed, i])`` for i in [start, stop), bit for bit,
    built lazily (a sampler holds only the generators it draws from)."""
    if not 0 <= start <= stop <= MAX_SAMPLES:
        raise ValueError(f"sample indices must lie in 0..{MAX_SAMPLES - 1}, got [{start}, {stop})")
    generator, pcg64, state_words = _stream_classes()
    return (generator(pcg64(state_words(words))) for words in _state_words(seed, start, stop))


@cache
def _blas_thread_api():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, or None where there is no such library or symbol."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                return get, set_  # ctypes' default int return and argument fit both
    return None


# the BLAS threads that a CLI process withheld by loading NumPy on one thread
# (cli.py); None in any other process
_withheld_blas_threads: int | None = None


@contextmanager
def _blas_threads(count: int | None, dim: int = 0):
    """Run the block on ``count`` BLAS threads, then restore the caller's
    count, also after an error; ``None`` leaves the count as it is. A block
    on d x d matrices with ``dim`` >= ``SMALL_DIM`` runs instead on the
    threads a CLI process withheld, or where none were, on the caller's.

    The count is process-wide, so it holds for all of the process while the
    block runs. Without an OpenBLAS thread API this does nothing.
    """
    if dim >= SMALL_DIM:
        count = _withheld_blas_threads
    api = None if count is None else _blas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def _one_blas_thread_worker():
    # a pool initializer: a forked worker inherits the caller's one thread,
    # but a forkserver or spawn worker starts on the BLAS default
    api = _blas_thread_api()
    if api is not None:
        api[1](1)


def _map_chunks(chunk_fn, samples: int, workers: int) -> np.ndarray:
    ranges = [(s, min(s + CHUNK_SIZE, samples)) for s in range(0, samples, CHUNK_SIZE)]
    # a fork pool starts every worker on the first submit, so never ask for
    # more than there are chunks or CPUs
    workers = min(workers, len(ranges), os.cpu_count() or 1)
    # every chunk function works on three-qubit (8 x 8) matrices, in this
    # process and in each worker
    with _blas_threads(1):
        if workers <= 1:
            parts = [chunk_fn(a, b) for a, b in ranges]
        else:
            # imported here: the pool and multiprocessing would add 16-19 ms to every CLI start
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread_worker) as pool:
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
    _check_pure_stack(psis)
    flags = evaluate(psis, 3, TABLE2_CRITERIA)
    if not local:
        return _counts(flags, TABLE2_CRITERIA)
    indices = range(start, stop)
    fq_local, _ = _local_directions_batch(psis, 3, [(seed, i, 1) for i in indices], restarts=4)
    witness_opt = _optimized_witness(psis, 3, [(seed, i, 2) for i in indices], restarts=5)
    flags["fq_2_local"] = _margin("fq_2", 3, fq_local) > 0
    flags["fq_3_local"] = _margin("fq_3", 3, fq_local) > 0
    flags["witness_opt"] = _margin("witness", 3, witness_opt) > 0
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
    local-direction optimization (``fisher.optimize_local_directions``, 4
    restarts) and the witness after local-unitary optimization
    (``criteria.ghz_witness``, 5 restarts), each from its own per-sample
    seed. The restarts of every state of a chunk run in lock step, so each
    optimiser is one call per chunk and numpy's fixed cost per call is paid
    once per chunk, not once per state; a pure state's witness form is built
    from overlaps, with no d x d projector. A direction step is a few Newton
    steps on a secular equation, and the seesaw's batched 4 x 4 ``eigh``
    costs the most; this mode is meant for reduced sample counts.
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
    rhos = _check_density_stack(zoo._random_ghz_diagonal_batch(_streams(seed, start, stop), mode))
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
    streams = _streams(seed, start, stop)
    rhos = _check_density_stack(zoo._random_ghz_diagonal_batch(streams, "bound_entangled"))
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


@dataclass
class _Bracket:
    """Grid points of one criterion known undetected (lo) and detected (hi),
    with the margins the search steers by; hi is None while none is known."""

    lo: int = 0
    f_lo: float = 0.0
    hi: int | None = None
    f_hi: float = 0.0


def _grid_thresholds(margins_at, names, resolution: float) -> dict[str, float | None]:
    """Smallest detected weight of each named criterion on the grid j / 2^m,
    for the least m with 2^-m <= ``resolution``, or None where p = 1 is not
    detected; ``margins_at(p)`` maps each name to a (1,) signed margin, > 0
    where it detects.

    This is the grid point that bisection from [0, 1] returns when the flags
    are monotone in p. Each criterion's bracket closes by regula falsi with
    the Illinois modification (Dowell and Jarratt, BIT 11, 168 (1971)) on
    its margins, rounded up to the grid, and by a bisection step after two
    steps that fail to halve it. Every point is decided once, for all names,
    and updates each bracket that holds it; a flag that contradicts a known
    end of any bracket raises ``InvariantError``. p = 0 is the maximally
    mixed state, which is separable, so no criterion may detect it.
    """
    m = 0
    while 2.0**-m > resolution:
        m += 1
    top = 2**m
    brackets = {name: _Bracket() for name in names}

    def decide(j: int):
        margins = margins_at(j / top)
        for name, b in brackets.items():
            f = float(margins[name][0])
            if f > 0 and j <= b.lo:
                raise InvariantError(
                    f"{name} detects p = {j / top} but not p = {b.lo / top}" if j else f"{name} detects I/2^N"
                )
            if f <= 0 and b.hi is not None and j >= b.hi:
                raise InvariantError(f"{name} detects p = {b.hi / top} but not p = {j / top}")
            if f > 0 and (b.hi is None or j < b.hi):
                b.hi, b.f_hi = j, f
            elif f <= 0 and j >= b.lo:
                b.lo, b.f_lo = j, f

    decide(top)
    decide(0)
    for b in brackets.values():
        stalls, side = 0, None
        while b.hi is not None and b.hi - b.lo > 1:
            width = b.hi - b.lo
            root = b.lo + width * b.f_lo / (b.f_lo - b.f_hi)
            if stalls >= 2 or not math.isfinite(root):
                j = (b.lo + b.hi) // 2
            else:
                j = min(max(math.ceil(root), b.lo + 1), b.hi - 1)
            decide(j)
            moved = "hi" if b.hi == j else "lo"
            if moved == side:  # Illinois: the end kept twice steers with half its margin
                if side == "hi":
                    b.f_lo /= 2
                else:
                    b.f_hi /= 2
            side = moved
            stalls = 0 if 2 * (b.hi - b.lo) <= width else stalls + 1
    return {name: None if b.hi is None else b.hi / top for name, b in brackets.items()}


def sweep_p(state_name: str, resolution: float = 1e-6, k: int | None = None) -> list[dict]:
    """White-noise robustness thresholds of each criterion for a pure state.

    For every producibility class, or class ``k`` alone, the minimal
    admixture weight p at which the QFI criteria detect
    p|psi><psi| + (1-p)I/2^N is searched on the bisection grid of
    ``resolution`` (``_grid_thresholds``) and cross-checked against the
    closed-form critical weight, given only where the pure state's own
    margin (``criteria._margin``) is above 0. Three-qubit states also get the
    witness and antidiagonal-test thresholds. Every mixture is built and its
    criteria decided in full, once per grid point.
    """
    if not (math.isfinite(resolution) and resolution >= 2.0**-52):
        # finer grids are not exact doubles, and bisection on them never ends
        raise ValueError(f"resolution must be finite and at least 2^-52, got {resolution!r}")
    state = zoo.parse_state_spec(state_name)
    if not isinstance(state, PureState):
        raise ValueError(f"the noise sweep needs a pure state, got {state_name!r}")
    n = state.num_qubits
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if k is not None and not 1 <= k < n:
        raise ValueError(f"class k must lie in 1..{n - 1}, got {k}")

    gamma = qfi_matrix(state)
    pure = {"fq": gamma.max_direction()[0], "fq_avg": gamma.average()}
    rows = []  # (criterion, k, closed-form threshold)
    for c in range(1, n) if k is None else (k,):
        for criterion, ratio in zip(pure, bound_ratios(state, c)):
            detected = _margin(f"{criterion}_{c + 1}", n, pure[criterion]) > 0
            rows.append((criterion, c, critical_p(ratio, n) if detected else None))
    if n == 3:
        witness = ghz_witness(state)  # 1/2 - fidelity
        closed = (0.5 - 0.125) / (0.5 - witness - 0.125) if _margin("witness", n, witness) > 0 else None
        rows += [("witness", None, closed), ("dme", None, None)]
    names = [f"{criterion}_{c + 1}" if c else criterion for criterion, c, _ in rows]

    with _blas_threads(1, state.dim):
        thresholds = _grid_thresholds(
            lambda p: _margins(mix_with_identity(state, p).matrix[None], n, names), names, resolution
        )
    return [
        {"criterion": criterion, "k": c, "p_threshold": thresholds[name], "p_closed_form": closed}
        for (criterion, c, closed), name in zip(rows, names)
    ]


def analyze(state_spec: str, optimize_witness: bool = False, seed: int = 0) -> dict:
    """Full criterion report for a zoo name or a state JSON file."""
    state = zoo.parse_state_spec(state_spec)
    # a pure report factorises nothing larger than 36 x 36; on 2 CPUs a second
    # BLAS thread stalled the N = 12 Gram by about 0.3 s in 2 of 12 fresh runs
    with _blas_threads(1) if isinstance(state, PureState) else _blas_threads(None, state.dim):
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
    with _blas_threads(None, state.dim):
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


def run_campaign(config: CampaignConfig) -> tuple[str, dict]:
    """Execute a campaign; returns (csv_text, json_payload)."""
    name = config.campaign
    # table2, table3 and analyze, which read a mode, check their own
    if config.mode is not None and "mode" not in CAMPAIGNS.get(name, ()):
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
        _check_num_qubits(config.n)  # the table is not dense, but the CLI keeps one qubit cap
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
        rows = sweep_p(config.state, 1e-6, config.k)
        return _dicts_csv(rows), {"campaign": name, "state": config.state, "rows": rows}
    if name == "analyze":
        if config.mode not in (None, "witness-opt"):
            raise ValueError(f"{name} defines no mode {config.mode!r}")
        if not config.state:
            raise ValueError("analyze needs --state")
        payload = analyze(config.state, optimize_witness=(config.mode == "witness-opt"), seed=config.seed)
        rows = [{"field": k, "value": v} for k, v in payload.items() if not isinstance(v, tuple)]
        return _dicts_csv(rows), payload
    if name == "phase-sim":
        payload = run_phase_sim(
            config.state or "ghz:4", config.m, config.trials, config.theta, config.seed
        )
        rows = [{"trial": i, "estimate": est} for i, est in enumerate(payload["estimates"])]
        summary = {k: v for k, v in payload.items() if k != "estimates"}
        return _dicts_csv(rows), summary
    raise ValueError(f"unknown campaign {name!r}")
