"""The benchmark harness's own tests, run from this suite.

``bench/tests`` is not on ``testpaths``: its ``conftest.py`` and the one in
this directory both import as ``conftest``, so one pytest session cannot
collect both.  A separate pytest process runs it from the repository root.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_harness_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
