"""The benchmark regression gate runs clean and actually detects regressions.

``benchmarks/run.py --check`` executes a smoke-sized benchmark pass and
compares its per-chart end-to-end numbers against the committed
``BENCH_connectivity.json`` with a tolerance band.  The smoke test pins both
directions: the tree as committed passes the gate, and a fabricated
regression (committed numbers far better than physically possible) is
actually caught -- the gate is not vacuously green.
"""

from __future__ import annotations

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "bench_run", REPO_ROOT / "benchmarks" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_check_passes_on_the_tree():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "run.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "--check passed" in result.stdout


def test_check_measures_every_gated_figure():
    # --check's measurement alone (not its comparison): every figure a gate
    # reads comes out present and finite, so deleting a case cannot
    # silently leave a gate without its input.  The Figure 4b arms read
    # 0.0 on the smoke sample (no NetworkPolicy in its charts), so only
    # finiteness is asserted.
    bench_run = _load_run_module()
    per_size, record = bench_run.measure(bench_run.parse_args(["--check"]))
    e2e = record["end_to_end"]
    smoke_fleet = per_size[bench_run.SMOKE_FLEET_SIZES[0]]
    figures = {key: e2e[key] for key in bench_run.CHECK_KEYS}
    figures.update(
        {
            key: e2e[key]
            for key in (
                "netpol_impact/naive_s",
                "netpol_impact/compiled_s",
                "evaluation/fault_overhead",
            )
        }
    )
    figures["matrix_sources/naive"] = smoke_fleet["matrix_sources/naive"]
    figures["matrix_sources/compiled"] = smoke_fleet["matrix_sources/compiled"]
    figures["delta/noop_ratio"] = record["delta"]["delta/noop_ratio"]
    assert all(math.isfinite(value) for value in figures.values()), figures


def test_check_detects_regression(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 1e-9, '
        '"netpol_impact/compiled_s": 1e-9, "evaluation/store_warm_s": 1e-9}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "evaluation/current_s": 0.02,
            "netpol_impact/compiled_s": 0.01,
            "evaluation/store_warm_s": 0.01,
        }
    }
    failures = bench_run.check_against_committed(record, committed, tolerance=3.0)
    assert len(failures) == len(bench_run.CHECK_KEYS)
    assert all("ms/chart exceeds" in failure for failure in failures)


def test_check_passes_within_band(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text(
        '{"end_to_end": {"charts": 290.0, "evaluation/current_s": 0.29, '
        '"netpol_impact/compiled_s": 0.29, "evaluation/store_warm_s": 0.29}}'
    )
    record = {
        "end_to_end": {
            "charts": 4.0,
            "evaluation/current_s": 0.008,  # 2 ms/chart vs committed 1 ms/chart
            "netpol_impact/compiled_s": 0.004,
            "evaluation/store_warm_s": 0.004,
        }
    }
    assert bench_run.check_against_committed(record, committed, tolerance=3.0) == []


def test_check_flags_missing_keys(tmp_path):
    bench_run = _load_run_module()
    committed = tmp_path / "BENCH_connectivity.json"
    committed.write_text('{"end_to_end": {"charts": 290.0}}')
    failures = bench_run.check_against_committed(
        {"end_to_end": {"charts": 4.0}}, committed, tolerance=3.0
    )
    assert len(failures) == len(bench_run.CHECK_KEYS)


def _load_cases_module():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import connectivity_cases
    finally:
        sys.path.pop(0)
    return connectivity_cases


def test_vectorized_gate_is_wired():
    # The --check path gates the bitset engine's compiled/naive ratio at the
    # committed grouped/naive ratio of the walk it replaced: the limits
    # exist for the smoke size and its remeasure size, and the smoke-sized
    # bench results carry the keys the gate reads (so it can never be
    # vacuously green).
    bench_run = _load_run_module()
    assert bench_run.MATRIX_RATIO_LIMITS == {30: 0.0540, 240: 0.0476}
    assert bench_run.SMOKE_FLEET_SIZES[0] in bench_run.MATRIX_RATIO_LIMITS
    cases = _load_cases_module()
    results = cases.run_size(bench_run.SMOKE_FLEET_SIZES[0], repeats=1)
    assert "matrix_sources/grouped" not in results
    assert results["matrix_sources/compiled"] > 0
    assert results["matrix_sources/naive"] > 0


def test_grouped_bindings_match_endpoint_controller():
    # Big fleets (> 1000 pods) bind services with the O(pods) group-by-app
    # shortcut instead of the O(services x pods) EndpointController scan.
    # Pin the equivalence just past the crossover: identical services,
    # identical backend lists, identical order.
    from repro.cluster import EndpointController

    cases = _load_cases_module()
    fleet = cases.build_fleet(1_200)
    reference = EndpointController().bind(fleet.services, fleet.pods)
    assert len(fleet.bindings) == len(reference)
    for fast, slow in zip(fleet.bindings, reference):
        assert fast.service is slow.service
        assert [b.ident for b in fast.backends] == [b.ident for b in slow.backends]


def test_small_fleets_still_use_the_endpoint_controller():
    cases = _load_cases_module()
    fleet = cases.build_fleet(240)
    from repro.cluster import EndpointController

    reference = EndpointController().bind(fleet.services, fleet.pods)
    assert [
        (b.service.name, [p.ident for p in b.backends]) for b in fleet.bindings
    ] == [(b.service.name, [p.ident for p in b.backends]) for b in reference]
