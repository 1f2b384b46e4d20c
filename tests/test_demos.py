"""Every demo runs to the end.

Each demo is copied into a temporary directory and run from there, so the
files it writes next to itself (budget_sweep.csv, fl_run/) stay out of the
source tree.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
