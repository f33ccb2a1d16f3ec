"""Byte-for-byte golden checks of the campaign CSVs.

Each file under ``tests/golden/`` is the CSV that ``run_campaign`` gave for
one configuration. The seeded detection campaigns use seed 0 and 2500
samples, which spans two chunks; ``table2 --mode local`` uses 10 samples,
since each one runs the local optimisers. The phase-sim files hold the
per-trial estimates of the two fringe probes at seed 0. The ``analyze
--mode witness-opt`` files hold the per-state report, including the GHZ
witness optimised over local unitaries, of a pure, a mixed and a GHZ state
at seed 0. ``analyze_duer6.csv`` is the report of a bound-entangled mixed
state and ``sweep_p_ghz4.csv`` the white-noise thresholds of GHZ(4); both
run the mixed spin-QFI kernel. ``analyze_ghz3.csv``, ``analyze_duer3.csv``
and ``sweep_p_ghz3.csv`` are the three-qubit paths: the antidiagonal test
and the GHZ witness of a pure and a mixed report, and the witness and
antidiagonal thresholds over white-noise mixtures of GHZ(3).
``sweep_p_ghz7.csv`` (the benchmark's sweep, twelve thresholds on 128 x 128
mixtures) and ``sweep_p_dicke6_3.csv`` pin the larger sweeps. The JSON
report of ``ghz:3`` and of ``dicke:4:2 --mode witness-opt`` is pinned too:
its key order, and the list fields its CSV leaves out, to 1e-12. Five
cases also run as ``python -m qfisher.cli`` processes, which choose their
own BLAS thread count.

A change that moves any byte of these tables fails here. If a change is
meant to alter them, regenerate the files in their own labelled commit
with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from qfisher.campaigns import CampaignConfig, run_campaign

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "table2.csv": dict(campaign="table2", samples=2500, seed=0),
    "table3_dme.csv": dict(campaign="table3", samples=2500, seed=0, mode="dme"),
    "table3_dme_family.csv": dict(campaign="table3", samples=2500, seed=0, mode="dme_family"),
    "bound_entangled_scan.csv": dict(campaign="bound-entangled-scan", samples=2500, seed=0),
    "bounds_curve_n6.csv": dict(campaign="bounds-curve", n=6),
    "table2_local.csv": dict(campaign="table2", samples=10, seed=0, mode="local"),
    "phase_sim_ghz4.csv": dict(campaign="phase-sim", state="ghz:4", trials=200, seed=0),
    "phase_sim_plus4.csv": dict(campaign="phase-sim", state="plus:4", trials=40, seed=0),
    "analyze_dicke4_2_witness.csv": dict(
        campaign="analyze", state="dicke:4:2", mode="witness-opt", seed=0
    ),
    "analyze_smolin2_witness.csv": dict(
        campaign="analyze", state="smolin:2", mode="witness-opt", seed=0
    ),
    "analyze_ghz5_witness.csv": dict(campaign="analyze", state="ghz:5", mode="witness-opt", seed=0),
    "analyze_duer6.csv": dict(campaign="analyze", state="duer:6"),
    "sweep_p_ghz4.csv": dict(campaign="sweep-p", state="ghz:4"),
    "analyze_ghz3.csv": dict(campaign="analyze", state="ghz:3"),
    "analyze_duer3.csv": dict(campaign="analyze", state="duer:3"),
    "sweep_p_ghz3.csv": dict(campaign="sweep-p", state="ghz:3"),
    "sweep_p_ghz7.csv": dict(campaign="sweep-p", state="ghz:7"),
    "sweep_p_dicke6_3.csv": dict(campaign="sweep-p", state="dicke:6:3"),
}

# phase-sim summary (std, ratio) at the configurations above; the CSV keeps
# only 10 significant digits of each estimate, so the summary is pinned too
PHASE_SIM_SUMMARY = {
    "phase_sim_ghz4.csv": (0.008202192850879593, 1.037504448669173),
    "phase_sim_plus4.csv": (0.01781481834977703, 1.1267080417491524),
}

# analyze's JSON keys in order, and the list fields of two reports
REPORT_KEYS = [
    "num_qubits", "qfi_max", "qfi_max_direction", "qfi_avg", "qfi_matrix", "depth_qfi", "depth_qfi_avg",
    "entangled", "genuine_multipartite", "qfi_local_opt", "witness_value", "witness_optimized",
    "dme_any_violated", "dme", "state",
]
ANALYZE_LISTS = {
    "analyze_ghz3.csv": {
        "qfi_max_direction": [0.0, 0.0, 1.0],
        "qfi_matrix": [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 9.0]],
        "dme": [
            {"pair": 1, "violated": True, "lhs": 0.5, "rhs": 0.0},
            {"pair": 2, "violated": False, "lhs": 0.0, "rhs": 0.5},
            {"pair": 3, "violated": False, "lhs": 0.0, "rhs": 0.5},
            {"pair": 4, "violated": False, "lhs": 0.0, "rhs": 0.5},
        ],
    },
    "analyze_dicke4_2_witness.csv": {
        "qfi_max_direction": [1.0, 0.0, 0.0],
        "qfi_matrix": [[12.0, 0.0, 0.0], [0.0, 12.0, 0.0], [0.0, 0.0, 0.0]],
        "dme": None,
    },
}


def _run(case: str) -> tuple[str, dict]:
    return run_campaign(CampaignConfig(**CASES[case]))


def _csv(case: str) -> bytes:
    return _run(case)[0].encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_golden(case):
    assert _csv(case) == (GOLDEN_DIR / case).read_bytes()


@pytest.mark.parametrize("case", sorted(PHASE_SIM_SUMMARY))
def test_phase_sim_summary_matches_golden(case):
    std, ratio = PHASE_SIM_SUMMARY[case]
    _, summary = _run(case)
    assert summary["std"] == pytest.approx(std, rel=1e-12, abs=0)
    assert summary["ratio"] == pytest.approx(ratio, rel=1e-12, abs=0)


# cases whose BLAS thread count differs in a CLI process, which starts NumPy
# on one thread unless the environment names a count
CLI_CASES = [
    "analyze_duer6.csv", "bound_entangled_scan.csv", "phase_sim_ghz4.csv", "sweep_p_dicke6_3.csv", "table2.csv",
]


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_process_csv_matches_golden(case, tmp_path):
    config = dict(CASES[case])
    argv = [config.pop("campaign"), "--out", str(tmp_path / case)]
    for flag, value in config.items():
        argv += [f"--{flag}", str(value)]
    subprocess.run([sys.executable, "-m", "qfisher.cli", *argv], stdout=subprocess.DEVNULL, check=True, timeout=120)
    assert (tmp_path / case).read_bytes() == (GOLDEN_DIR / case).read_bytes()


def _close(got, expected) -> bool:
    """The same JSON structure, with every number within 1e-12 of the pinned one."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and list(got) == list(expected) and all(_close(got[k], v) for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(got, list) and len(got) == len(expected) and all(map(_close, got, expected))
    if isinstance(expected, bool) or expected is None:
        return got is expected
    return type(got) is type(expected) and abs(got - expected) <= 1e-12


@pytest.mark.parametrize("case", sorted(ANALYZE_LISTS))
def test_analyze_json_matches_golden(case):
    payload = json.loads(json.dumps(_run(case)[1]))
    assert list(payload) == REPORT_KEYS
    for field, expected in ANALYZE_LISTS[case].items():
        assert _close(payload[field], expected), (field, payload[field])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / name).write_bytes(_csv(name))
        print(f"wrote {GOLDEN_DIR / name}")
