"""Smoke run of the per-step A/B harness, as `python tools/step_pairs.py` runs it (about 1 s)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_times_the_tree_against_itself():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "step_pairs.py"), src, src, "--pairs", "2", "--steps", "20"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout)
    assert (result["N"], result["Q"], result["pairs"]) == (5, 90, 2)
    assert sorted(result["widths"], key=int) == ["1", "32", "128"]
    for width in result["widths"].values():
        assert set(width) == {"parent_us", "change_us", "median_ratio", "pairs_won"}
        assert set(width["parent_us"]) == set(width["change_us"]) == {"median", "q1", "q3"}
        assert width["median_ratio"] > 0
        assert width["pairs_won"].endswith("/2")
