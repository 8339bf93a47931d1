"""The benchmark's self-test, run as `python -B benchmarks/selftest.py` runs it.

It builds the benchmark's random warps (`workloads.Evaluate.random_warp`) through
the flow's public constructors and requires a trained checkpoint to reload bit for
bit, so a change to how a warp is built or checked that breaks the benchmark fails
here.  `-B` keeps it from writing bytecode caches into `benchmarks/`.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "selftest.py"


def test_every_check_rejects_its_corrupted_output():
    done = subprocess.run([sys.executable, "-B", str(SELFTEST)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "9 of 9 checks reject their corrupted output" in done.stdout
