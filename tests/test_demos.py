"""The walkthrough scripts under demos/ run to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_data_and_formats.py",
    "02_reasoning_mechanics.py",
    "03_overfit_and_evaluate.py",
    "04_ablation_grid.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
