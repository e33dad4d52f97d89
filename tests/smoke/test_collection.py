"""The benchmark suites and the test suite collect in one pytest run.

pytest loads ``benchmarks/conftest.py`` and ``tests/conftest.py`` under one
module name, ``conftest``, so a benchmark module that imported its helpers
from ``conftest`` failed to collect whenever a run took both directories.
The helpers live in ``benchmarks/bench_harness.py``; this collects the
benchmarks next to a test in a fresh interpreter and asserts it succeeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_benchmarks_collect_next_to_the_tests():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--co", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_bench_figure4b.py", "tests/smoke/test_tracer_install.py",
         "benchmarks/"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
