"""Every script under demos/ runs to completion against the source tree.

Each demo runs in its own interpreter from an empty working directory, so
it can rely only on the package and on what it creates itself. Demo 04
asserts the efficient block's parameter and memory budgets; 03 and 05 train
and are marked slow.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"03_overfit_one_pair.py", "05_cli_workflow.py"}
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_and_slow_names_exist():
    # an empty glob would run nothing; a renamed slow demo would lose its marker
    assert DEMOS and SLOW <= {p.name for p in DEMOS}


@pytest.mark.parametrize("demo", [
    pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
