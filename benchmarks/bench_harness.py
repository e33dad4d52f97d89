"""Helpers the ``benchmarks/test_bench_*.py`` modules import.

Kept out of ``conftest.py``: pytest loads both ``benchmarks/conftest.py``
and ``tests/conftest.py`` under the module name ``conftest``, so
``from conftest import ...`` fails whenever one collection takes both
directories.
"""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
