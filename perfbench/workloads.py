"""Workloads of the qfisher benchmark and the checks on their outputs.

A workload is a fixed list of ``qfisher`` CLI invocations. One iteration of a
workload runs all of them in sequence, each in a fresh process, with
``--workers 1`` and the benchmark seed appended. Every invocation carries a
check that raises ``CheckFailed`` when its output is wrong; the checks know
the expected values without importing qfisher, so a broken library cannot
vouch for itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable


class CheckFailed(Exception):
    """An invocation produced output that violates a known invariant."""


@dataclass(frozen=True)
class Output:
    stdout: str
    out_file: str | None  # text of the --out file, for commands that write one


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # CLI arguments; workload iterations append --seed and --workers
    check: Callable[[Output], None]
    out_csv: bool = False  # the command also writes a CSV to --out (phase-sim estimates)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rates(text: str, names: tuple[str, ...], samples: int) -> dict[str, int]:
    """Detection counts of a campaign CSV, after checking its shape."""
    rows = _csv_rows(text)
    got = tuple(r["criterion"] for r in rows)
    if got != names:
        raise CheckFailed(f"criteria {got} differ from {names}")
    counts = {}
    for r in rows:
        detected, total = int(r["detected"]), int(r["samples"])
        if total != samples or not 0 <= detected <= samples:
            raise CheckFailed(f"{r['criterion']}: {detected} of {total}, expected at most {samples}")
        counts[r["criterion"]] = detected
    return counts


TABLE2 = ("fq_2", "fq_avg_2", "fq_3", "fq_avg_3", "dme", "dme_family", "witness")
TABLE2_LOCAL = TABLE2 + ("fq_2_local", "fq_3_local", "witness_opt")
TABLE3 = ("witness", "fq_3", "fq_avg_3")
SCAN = ("ppt_all_cuts", "fq_2", "fq_avg_2")


def check_rates(out: Output, names: tuple[str, ...], samples: int) -> None:
    _rates(out.stdout, names, samples)


def check_scan(out: Output, samples: int) -> None:
    counts = _rates(out.stdout, SCAN, samples)
    # the family is PPT across every cut, and PPT states never beat the
    # separable bounds
    if counts != {"ppt_all_cuts": samples, "fq_2": 0, "fq_avg_2": 0}:
        raise CheckFailed(f"bound-entangled scan counts {counts}")


def check_local(out: Output, samples: int) -> None:
    counts = _rates(out.stdout, TABLE2_LOCAL, samples)
    # each optimiser starts from the collective or unoptimised value
    for opt, base in (("fq_2_local", "fq_2"), ("fq_3_local", "fq_3"), ("witness_opt", "witness")):
        if counts[opt] < counts[base]:
            raise CheckFailed(f"{opt} detects {counts[opt]} < {base} {counts[base]}")


def check_dicke_12_6(out: Output) -> None:
    report = json.loads(out.stdout)
    n = 12
    if report["num_qubits"] != n:
        raise CheckFailed(f"num_qubits {report['num_qubits']}")
    exact = n * (n + 2) / 2.0  # QFI of the half-filled Dicke state along x
    if abs(report["qfi_max"] - exact) > 1e-8:
        raise CheckFailed(f"qfi_max {report['qfi_max']!r}, expected {exact}")
    # the local optimiser starts from the best collective direction; the slack
    # absorbs the rounding between its variance formula and the QFI matrix
    if report["qfi_local_opt"] < report["qfi_max"] - 1e-9:
        raise CheckFailed(f"qfi_local_opt {report['qfi_local_opt']!r} < qfi_max")


def check_duer_10(out: Output) -> None:
    report = json.loads(out.stdout)
    n = 10
    if report["num_qubits"] != n:
        raise CheckFailed(f"num_qubits {report['num_qubits']}")
    # any QFI of a collective spin lies between 0 and the GHZ value N^2
    if not 0.0 < report["qfi_avg"] <= report["qfi_max"] <= n * n:
        raise CheckFailed(f"qfi_avg {report['qfi_avg']!r}, qfi_max {report['qfi_max']!r}")


def check_sweep(out: Output, num_qubits: int, resolution: float) -> None:
    rows = _csv_rows(out.stdout)
    if len(rows) != 2 * (num_qubits - 1):
        raise CheckFailed(f"{len(rows)} sweep rows, expected {2 * (num_qubits - 1)}")
    for r in rows:
        found, closed = float(r["p_threshold"]), float(r["p_closed_form"])
        if abs(found - closed) > resolution:
            raise CheckFailed(f"{r['criterion']} k={r['k']}: bisection {found} vs closed form {closed}")


def check_phase(out: Output, trials: int, window: tuple[float, float]) -> None:
    summary = json.loads(out.stdout)
    estimates = [float(r["estimate"]) for r in _csv_rows(out.out_file or "")]
    if summary["trials"] != trials or len(estimates) != trials:
        raise CheckFailed(f"{len(estimates)} estimates, expected {trials}")
    lo, hi = window
    if not all(lo <= e <= hi for e in estimates):
        raise CheckFailed(f"estimate outside the window {window}")
    # the probes are measured optimally, so std / CRB is 1 up to the sampling
    # error of a standard deviation from T trials, 1 / sqrt(2 (T - 1));
    # five of those keep a false alarm below one in a million
    tolerance = 5.0 / math.sqrt(2.0 * (trials - 1))
    if abs(summary["ratio"] - 1.0) > tolerance:
        raise CheckFailed(f"std/CRB {summary['ratio']!r} differs from 1 by more than {tolerance:.3f}")


def check_bounds_curve(out: Output, num_qubits: int) -> None:
    rows = _csv_rows(out.stdout)
    if [int(r["k"]) for r in rows] != list(range(1, num_qubits + 1)):
        raise CheckFailed("bounds-curve rows are not k = 1..N")
    for r in rows:
        k = int(r["k"])
        s, rest = divmod(num_qubits, k)
        if float(r["fq_bound"]) != s * k * k + rest * rest:
            raise CheckFailed(f"fq_bound {r['fq_bound']} for k={k}")


MC_SAMPLES = 10_000
LOCAL_SAMPLES = 20
PLUS_TRIALS = 40

# workload -> the invocations of one iteration
WORKLOADS = {
    "mc-detect": (
        Command(("table2", "--samples", str(MC_SAMPLES)), partial(check_rates, names=TABLE2, samples=MC_SAMPLES)),
        Command(("table3", "--samples", str(MC_SAMPLES)), partial(check_rates, names=TABLE3, samples=MC_SAMPLES)),
        Command(("bound-entangled-scan", "--samples", str(MC_SAMPLES)), partial(check_scan, samples=MC_SAMPLES)),
    ),
    "dense-n": (
        Command(("analyze", "--state", "dicke:12:6"), check_dicke_12_6),
        Command(("analyze", "--state", "duer:10"), check_duer_10),
        Command(("sweep-p", "--state", "ghz:7"), partial(check_sweep, num_qubits=7, resolution=1e-6)),
    ),
    "phase-est": (
        Command(
            ("phase-sim", "--state", "ghz:4"),
            partial(check_phase, trials=200, window=(0.0, math.pi / 4)),
            out_csv=True,
        ),
        Command(
            ("phase-sim", "--state", "plus:4", "--trials", str(PLUS_TRIALS)),
            partial(check_phase, trials=PLUS_TRIALS, window=(0.0, math.pi)),
            out_csv=True,
        ),
    ),
    "local-opt": (
        Command(
            ("table2", "--mode", "local", "--samples", str(LOCAL_SAMPLES)),
            partial(check_local, samples=LOCAL_SAMPLES),
        ),
    ),
}

# setup_s: a fresh process importing the package and finishing a trivial campaign
SETUP_COMMAND = Command(("bounds-curve", "--n", "4"), partial(check_bounds_curve, num_qubits=4))

# The determinism check runs these at --workers 1, --workers 2 and --workers 1
# again; 2500 samples span two chunks of 2048, so two workers really split them.
DETERMINISM_SAMPLES = 2500
DETERMINISM_COMMANDS = tuple(
    (campaign, "--samples", str(DETERMINISM_SAMPLES))
    for campaign in ("table2", "table3", "bound-entangled-scan")
)
