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

A change that moves any byte of these tables fails here. If a change is
meant to alter them, regenerate the files in their own labelled commit
with::

    PYTHONPATH=src python tests/test_golden.py
"""

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
}

# phase-sim summary (std, ratio) at the configurations above; the CSV keeps
# only 10 significant digits of each estimate, so the summary is pinned too
PHASE_SIM_SUMMARY = {
    "phase_sim_ghz4.csv": (0.008202192850879593, 1.037504448669173),
    "phase_sim_plus4.csv": (0.01781481834977703, 1.1267080417491524),
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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / name).write_bytes(_csv(name))
        print(f"wrote {GOLDEN_DIR / name}")
