"""The benchmark's self-test passes against the library in this checkout.

The benchmark reads results through ``terms()``, ``.re`` and ``.im``, and its
traced run wraps ``BivarPoly`` operator methods by name, so a ring change that
breaks either shows up here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()
