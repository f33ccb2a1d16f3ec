"""Byte-for-byte golden checks of the campaign CSVs.

Each file under ``tests/golden/`` is the CSV that ``run_campaign`` gave for
one configuration. The seeded campaigns use seed 0 and 2500 samples, which
spans two chunks. A change that moves any byte of a detection table fails
here. If a change is meant to alter them, regenerate the files in their own
labelled commit with::

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
}


def _csv(case: str) -> bytes:
    csv_text, _ = run_campaign(CampaignConfig(**CASES[case]))
    return csv_text.encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_golden(case):
    assert _csv(case) == (GOLDEN_DIR / case).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / name).write_bytes(_csv(name))
        print(f"wrote {GOLDEN_DIR / name}")
