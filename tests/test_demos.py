"""Smoke runs of the quick demos, as `python demos/<name>.py` runs them.

Demo 02 writes its warp checkpoint and loss trace into the current directory,
so each demo runs from a fresh one.  Demo 03 trains a whole sweep (several
seconds) and stays a manual check.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_hermite_solver", "02_train_warped_basis", "04_variational_limit_caveat"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
    if name == "02_train_warped_basis":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace_N5.csv", "warp_N5.txt"]
