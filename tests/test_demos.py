"""Smoke test of the demos: each one runs to the end in-process.

Demo 03 is left out. It runs the detection campaigns at 20k samples (a few
seconds), and the campaign goldens already pin those campaigns; CI runs it
once, as a step of its own.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = [
    "01_spin_qfi_basics.py",
    "02_entanglement_depth.py",
    "04_bound_entanglement.py",
    "05_phase_estimation.py",
    "06_noise_robustness.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, capsys):
    with np.printoptions():  # the demos set print options; restore them after
        runpy.run_path(str(DEMO_DIR / demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
