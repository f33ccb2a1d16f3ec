"""qfisher benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload mc-detect --seed 0 --seconds 22 --trace 0

Run from the repository root; the CLI runs from ``src/`` in fresh processes.
With ``--trace 0`` it reports the end-to-end metrics (``wall_s``, ``cpu_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it alternates untraced and
traced iterations and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead_ratio``. Every invocation's output is checked, and the
``mc-detect`` CSVs must be byte-identical at ``--workers 1`` and ``2`` and
across repeats. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a detailed record,
machine description included, goes to ``perfbench/out/results/``. See
``perfbench/README.md`` for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import EXACT, LAYER_METRICS, UNITS, layer_metrics
from workloads import (
    DETERMINISM_COMMANDS,
    SETUP_COMMAND,
    WORKLOADS,
    CheckFailed,
    Command,
    Output,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 7
MIN_ITERATIONS = 3  # untraced iterations per --trace 0 run
MIN_TRACED = 2  # traced iterations per --trace 1 run, so exact counts can be compared
DEADLINE_S = 170  # the whole run, children included


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    ok: bool


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mb: float
    layers: dict[str, float]


class Bench:
    """Runs CLI processes one at a time and tallies checked operations."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        pythonpath = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not pythonpath else f"{src}{os.pathsep}{pythonpath}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.child: subprocess.Popen | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def invoke(self, argv: tuple[str, ...], tag: str, spans: Path | None = None, run_id: str = "") -> Invocation:
        """One CLI process; wall clock around it, CPU and max RSS from wait4."""
        stdout_path = self.work_dir / f"{tag}.out"
        prefix = [sys.executable, "-m", "qfisher.cli"]
        if spans is not None:
            prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans), "--run-id", run_id, "--"]
        with open(stdout_path, "w") as out, open(self.work_dir / f"{tag}.err", "w") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen([*prefix, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - start
        code = self.child.returncode = os.waitstatus_to_exitcode(status)
        self.child = None
        self.attempted += 1
        if code != 0:
            self.fail(f"{tag}: qfisher {' '.join(argv)} exited with {code}")
        return Invocation(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout_path.read_text(), code == 0
        )

    def checked(self, command: Command, tag: str, extra: tuple[str, ...], **trace) -> Invocation:
        argv = command.argv + extra
        out_path = None
        if command.out_csv:
            out_path = self.work_dir / f"{tag}.data.csv"
            argv += ("--out", str(out_path))
        result = self.invoke(argv, tag, **trace)
        if result.ok:
            try:
                command.check(Output(result.stdout, out_path.read_text() if out_path else None))
            except (CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
                self.fail(f"{tag}: qfisher {' '.join(argv)}: {type(exc).__name__}: {exc}")
        return result

    def iteration(self, index: int, traced: bool, cli_seed: int) -> Iteration:
        """All commands of the workload in sequence, each in a fresh process."""
        extra = ("--seed", str(cli_seed), "--workers", "1")
        kind = "traced" if traced else "plain"
        run_id = f"{self.workload}-seed{cli_seed}-{kind}{index}"
        results, span_files = [], []
        start = time.perf_counter()
        for k, command in enumerate(self.commands):
            tag = f"{kind}{index}-cmd{k}"
            trace = {}
            if traced:
                trace = {"spans": self.work_dir / f"{tag}.spans.json", "run_id": run_id}
                span_files.append(str(trace["spans"]))
            results.append(self.checked(command, tag, extra, **trace))
        wall = time.perf_counter() - start
        layers = layer_metrics(span_files) if traced and all(r.ok for r in results) else {}
        return Iteration(wall, sum(r.cpu_s for r in results), max(r.rss_mb for r in results), layers)

    def setup_times(self) -> list[float]:
        return [self.checked(SETUP_COMMAND, f"setup{i}", ()).wall_s for i in range(SETUP_RUNS)]

    def determinism(self) -> None:
        """mc-detect CSVs: --workers 2 and a repeat must match --workers 1 byte for byte."""
        for k, argv in enumerate(DETERMINISM_COMMANDS):
            outputs = {}
            for label, workers in (("w1", 1), ("w2", 2), ("w1again", 1)):
                tag = f"determinism{k}-{label}"
                result = self.invoke(argv + ("--seed", str(self.seed), "--workers", str(workers)), tag)
                outputs[label] = result.stdout if result.ok else None
            for label in ("w2", "w1again"):
                self.attempted += 1
                if outputs["w1"] is None or outputs[label] != outputs["w1"]:
                    self.fail(f"determinism: qfisher {' '.join(argv)} output at {label} differs from w1")

    def kill_child(self) -> None:
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self.child.wait()


def campaign_seed(seed: int, index: int) -> int:
    """CLI seed of iteration ``index``.

    Timed iterations cycle through inputs, so a run's median spans several
    optimiser workloads instead of resting on one seed's convergence;
    traced runs repeat index 0 so their counts can be compared exactly.
    """
    return 1000 * seed + index


def run_until(seconds: float, minimum: int, step) -> list:
    """Call step(i) until the next call would end past ``seconds``, at least ``minimum`` times."""
    results, start = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - before
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, read through its own API."""
    import numpy  # noqa: F401  (loads the BLAS library this process would use)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    sha = None  # null outside a git checkout
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.setup_times()
    bench.determinism()
    iterations = run_until(
        seconds, MIN_ITERATIONS, lambda i: bench.iteration(i, False, campaign_seed(bench.seed, i))
    )
    metrics = {
        "wall_s": (statistics.median(it.wall_s for it in iterations), "s"),
        "cpu_s": (statistics.median(it.cpu_s for it in iterations), "s"),
        "peak_rss_mb": (statistics.median(it.rss_mb for it in iterations), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "iterations": [{"wall_s": it.wall_s, "cpu_s": it.cpu_s, "rss_mb": it.rss_mb} for it in iterations],
        "setup_runs_s": setup,
    }
    return metrics, detail


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.determinism()
    seed = campaign_seed(bench.seed, 0)
    # untimed: the first dense-n iteration of a run pays for fresh pages, which
    # would bias the traced/untraced ratio of a two-pair run
    bench.iteration(-1, False, seed)
    pairs = run_until(
        seconds, MIN_TRACED, lambda i: (bench.iteration(i, False, seed), bench.iteration(i, True, seed))
    )
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = [t.layers for t in traced if t.layers]
    metrics = {}
    if len(layers) == len(traced):
        for name, (_, quantity) in LAYER_METRICS.items():
            values = [run[name] for run in layers]
            if quantity in EXACT:
                bench.attempted += 1
                if len(set(values)) != 1:
                    bench.fail(f"count {name} differs between traced runs of one seed: {values}")
                metrics[name] = (values[0], UNITS[quantity])
            else:
                metrics[name] = (statistics.median(values), UNITS[quantity])
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.wall_s for t in traced) / statistics.median(p.wall_s for p in plain),
        "ratio",
    )
    detail = {
        "plain_wall_s": [p.wall_s for p in plain],
        "traced_wall_s": [t.wall_s for t in traced],
        "traced_layers": layers,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfisher" / "cli.py").is_file():
        print(f"error: no qfisher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    bench = Bench(args.workload, args.seed, args.trace)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(bench, args.seconds)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        bench.kill_child()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_ratio": bench.failed / bench.attempted,
        "problems": bench.problems,
        **detail,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    count = len(detail.get("iterations", detail.get("traced_wall_s", [])))
    print(f"workload {args.workload}, seed {args.seed}, {count} iterations; machine {json.dumps(record['machine'])}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:30s} {shown} {unit}")
    print(f"  {'error_ratio':30s} {record['error_ratio']:14.6f} 1  ({bench.failed} of {bench.attempted} failed)")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
