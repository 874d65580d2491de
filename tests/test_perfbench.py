"""The benchmark harness's own self-test, run as one test."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAIL")]
    assert done.returncode == 0, "\n".join(failed) or done.stderr[-2000:]
