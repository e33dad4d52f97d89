"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series, so running ``pytest benchmarks/ --benchmark-only -s``
produces both the timing numbers and the reproduced artefacts.  Helpers the
benchmark modules import live in ``bench_harness.py``: a ``conftest`` module
name is shared with ``tests/conftest.py``, so importing from it resolves to
whichever of the two was loaded first.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def full_evaluation_result():
    """The full-catalogue evaluation, shared by the Table 2 / Figure 3 / 4a benches."""
    from repro.experiments import run_full_evaluation

    return run_full_evaluation()
