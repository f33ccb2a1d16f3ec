"""Traced ``qfisher`` CLI invocation and the per-layer metrics of its spans.

Run as a script, this is a drop-in for ``python -m qfisher.cli``::

    python perfbench/tracer.py --spans spans.json --run-id ID -- table3 --samples 100

It wraps the boundary functions of every layer (``cli``, ``campaigns``,
``zoo``, ``core``, ``fisher``, ``criteria``, ``estimation`` and the numpy
``linalg`` calls they all make) from outside the library, runs the CLI in
this process, and on exit writes every span it recorded to the ``--spans``
file. ``layer_metrics`` turns the span files of one workload iteration into
the per-layer metrics.

A wrapper is installed under every name a caller looks the function up by:
modules that import a function by name hold their own reference, so patching
only the defining module would leave those calls untraced.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time

# span name -> the (module, attribute) names its function is reached through
WRAP_POINTS = {
    "cli.emit": [("qfisher.cli", "_emit")],
    "campaigns.run": [("qfisher.cli", "run_campaign")],
    "campaigns.reduce": [("qfisher.campaigns", "_map_chunks")],
    "campaigns.chunk": [
        ("qfisher.campaigns", name) for name in ("_table2_chunk", "_table3_chunk", "_scan_chunk")
    ],
    "criteria.report": [("qfisher.campaigns", "build_report"), ("qfisher.criteria", "build_report")],
    "criteria.witness_seesaw": [("qfisher.criteria", "_witness_seesaw")],
    "zoo.sample": [("qfisher.zoo", "random_pure_3qubit"), ("qfisher.zoo", "random_ghz_diagonal")],
    "zoo.construct": [
        ("qfisher.zoo", name)
        for name in (
            "parse_state_spec", "ghz", "dicke", "plus_state", "ones_state", "psi_s4", "ghz_diagonal",
            "bound_entangled_ghz_diagonal", "duer_state", "smolin_state", "ghz_basis_state",
        )
    ],
    "core.validate": [
        ("qfisher.core", "PureState.__post_init__"),
        ("qfisher.core", "DensityMatrix.__post_init__"),
        ("qfisher.core", "HermitianOperator.__post_init__"),
    ],
    "core.spin_build": [("qfisher.core", "collective_spin_matrix"), ("qfisher.fisher", "collective_spin_matrix")],
    "fisher.spin_cache": [("qfisher.fisher", "_collective_spins"), ("qfisher.campaigns", "_collective_spins")],
    "fisher.spin_qfi": [
        (module, name)
        for module in ("qfisher.fisher", "qfisher.campaigns")
        for name in ("_gamma_pure_batch", "_gamma_mixed_batch")
    ],
    "fisher.local_dirs": [
        (module, "optimize_local_directions")
        for module in ("qfisher.fisher", "qfisher.campaigns", "qfisher.criteria")
    ],
    "fisher.povm_build": [("qfisher.campaigns", "parity_povm"), ("qfisher.campaigns", "x_basis_povm")],
    "fisher.model_prob": [("qfisher.fisher", "model_probabilities"), ("qfisher.estimation", "model_probabilities")],
    "estimation.sample": [("qfisher.estimation", "sample_outcomes")],
    "estimation.ml": [("qfisher.estimation", "ml_estimate")],
    "linalg.eig": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")],
    "linalg.kron": [("numpy", "kron")],
}

# per-layer metric -> (span name, quantity); "self_s" is the span's duration
# minus the time its child spans cover, summed over the iteration
LAYER_METRICS = {
    "cli.import_s": ("cli.import", "self_s"),
    "cli.emit_s": ("cli.emit", "self_s"),
    "campaigns.run_s": ("campaigns.run", "self_s"),
    "campaigns.chunk_s": ("campaigns.chunk", "self_s"),
    "campaigns.chunks": ("campaigns.chunk", "calls"),
    "campaigns.reduce_s": ("campaigns.reduce", "self_s"),
    "criteria.report_s": ("criteria.report", "self_s"),
    "criteria.witness_seesaw_s": ("criteria.witness_seesaw", "self_s"),
    "criteria.witness_seesaw_calls": ("criteria.witness_seesaw", "calls"),
    "zoo.sample_s": ("zoo.sample", "self_s"),
    "zoo.sample_calls": ("zoo.sample", "calls"),
    "zoo.construct_s": ("zoo.construct", "self_s"),
    "core.validate_s": ("core.validate", "self_s"),
    "core.validate_calls": ("core.validate", "calls"),
    "core.spin_build_s": ("core.spin_build", "self_s"),
    "core.spin_build_calls": ("core.spin_build", "calls"),
    "fisher.spin_cache_s": ("fisher.spin_cache", "self_s"),
    "fisher.spin_cache_mb": ("fisher.spin_cache", "work_mb"),
    "fisher.spin_qfi_s": ("fisher.spin_qfi", "self_s"),
    "fisher.spin_qfi_calls": ("fisher.spin_qfi", "calls"),
    "fisher.local_dirs_s": ("fisher.local_dirs", "self_s"),
    "fisher.povm_build_s": ("fisher.povm_build", "self_s"),
    "fisher.model_prob_s": ("fisher.model_prob", "self_s"),
    "fisher.model_prob_calls": ("fisher.model_prob", "calls"),
    "estimation.sample_s": ("estimation.sample", "self_s"),
    "estimation.ml_s": ("estimation.ml", "self_s"),
    "estimation.trials": ("estimation.ml", "calls"),
    "linalg.eig_s": ("linalg.eig", "self_s"),
    "linalg.eig_calls": ("linalg.eig", "calls"),
    "linalg.eig_work": ("linalg.eig", "work"),
    "linalg.kron_s": ("linalg.kron", "self_s"),
    "linalg.kron_calls": ("linalg.kron", "calls"),
}
UNITS = {"self_s": "s", "calls": "count", "work": "count", "work_mb": "MB"}
# quantities that must repeat exactly between two traced runs of one seed
EXACT = ("calls", "work", "work_mb")


def _eig_work(out, a, *args, **kwargs) -> int:
    """batch * d^3 of one eigendecomposition call."""
    import numpy  # loaded by qfisher already; importing it at the top would move it out of cli.import

    *batch, _, d = numpy.shape(a)
    return math.prod(batch) * d**3


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self._seen_cache_ids: set[int] = set()

    def _cache_bytes(self, out, *args, **kwargs) -> int:
        """Bytes a spin-cache call adds: the result's size the first time it is seen."""
        if id(out) in self._seen_cache_ids:
            return 0
        self._seen_cache_ids.add(id(out))
        return out.nbytes

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[4] = work(out, *args, **kwargs)
            return out

        return traced

    def span(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Replace every wrap point; one wrapper per distinct function."""
        works = {"linalg.eig": _eig_work, "fisher.spin_cache": self._cache_bytes}
        wrappers: dict[int, object] = {}
        for name, points in WRAP_POINTS.items():
            for module_name, path in points:
                owner = sys.modules.get(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, works.get(name))
                setattr(owner, attr, wrappers[id(fn)])

    def write(self, path: str, run_id: str, argv: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run": run_id,
                    "argv": argv,
                    "missing": self.missing,
                    "fields": ["name", "start_ns", "end_ns", "parent", "work"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one workload iteration."""
    zero = {"self_s": 0.0, "calls": 0, "work": 0, "work_mb": 0.0}
    totals: dict[str, dict[str, float]] = {}
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, work), children in zip(spans, child_ns):
            t = totals.setdefault(name, dict(zero))
            t["self_s"] += (end - start - children) / 1e9
            t["calls"] += 1
            t["work"] += work
            t["work_mb"] += work / 2**20
    return {metric: totals.get(span, zero)[quantity] for metric, (span, quantity) in LAYER_METRICS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="run one qfisher CLI invocation with layer tracing")
    parser.add_argument("--spans", required=True, help="file the spans are written to on exit")
    parser.add_argument("--run-id", required=True, help="identifier shared by the spans of one iteration")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- followed by qfisher CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    try:
        cli = tracer.span("cli.import", importlib.import_module, "qfisher.cli")
        tracer.install()
        return tracer.span("cli.main", cli.main, cli_args)
    finally:
        tracer.write(args.spans, args.run_id, cli_args)
        for point in tracer.missing:
            print(f"tracer: wrap point {point} not found; its layer is not traced", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
