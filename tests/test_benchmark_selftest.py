"""The benchmark's self-test must pass: its output check fails the reports it
must fail, and its tracer leaves report bodies and names as it found them and
audits every call, a deliberately missed rebinding included.

perfbench/selftest.py runs in a subprocess of its own, without writing
bytecode, so the test leaves perfbench/ as it found it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_the_benchmark_selftest_passes():
    if not SELFTEST.is_file():
        pytest.skip("perfbench/selftest.py is absent")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-B", str(SELFTEST)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
