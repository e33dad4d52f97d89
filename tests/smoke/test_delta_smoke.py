"""Delta-evaluation smoke: fast differential, gate wiring, CLI round trips.

The deep equivalence proof lives in
``tests/experiments/test_delta_evaluation.py``; this module is the
inner-loop fast path.  It pins four things end to end: a tiny delta round
is byte-identical to from-scratch, the ``--check`` no-op-ratio gate is
actually wired to numbers the delta benchmark emits (never vacuously
green), ``insidejob watch`` completes a round over an on-disk chart
directory (and quarantines a broken one without stopping), and
``insidejob sweep --store`` reports a delta epoch transition over a
durable store, removed charts included, without a ``StoreIntegrity``
hint when only the catalogue changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments import DeltaEvaluator, run_full_evaluation
from repro.datasets import build_catalog
from tests.support.chart_dirs import write_chart_dir
from tests.support.diffing import assert_identical, canonical_evaluation

REPO_ROOT = Path(__file__).resolve().parents[2]
SAMPLE = 3


def _tweaked(applications, index):
    import copy
    import dataclasses

    app = applications[index]
    values = copy.deepcopy(app.chart.values)
    values["deltaSmoke"] = True
    chart = dataclasses.replace(app.chart, values=values)
    out = list(applications)
    out[index] = dataclasses.replace(app, chart=chart)
    return out


def test_delta_round_matches_scratch():
    applications = build_catalog()[:SAMPLE]
    evaluator = DeltaEvaluator()
    evaluator.evaluate(applications)
    changed = _tweaked(applications, 0)
    incremental = evaluator.evaluate(changed)
    assert incremental.delta_stats["recomputed"] == 1
    scratch = run_full_evaluation(applications=changed)
    assert_identical(
        canonical_evaluation(incremental), canonical_evaluation(scratch), "smoke delta"
    )


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "bench_run", REPO_ROOT / "benchmarks" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_delta_cases():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import delta_cases
    finally:
        sys.path.pop(0)
    return delta_cases


def test_delta_gate_is_wired():
    # The --check path gates the no-op delta round against the full sweep:
    # the limit exists, the remeasure sample is large enough that fixed
    # costs do not dominate, and the benchmark emits the keys the gate
    # reads -- so the gate can never be vacuously green.
    bench_run = _load_run_module()
    assert bench_run.DELTA_NOOP_RATIO_LIMIT == 0.05
    assert bench_run.DELTA_SAMPLE_FLOOR >= 60
    cases = _load_delta_cases()
    results = cases.run_delta_suite(sample=4, repeats=1)
    assert results["delta/full_sweep_s"] > 0
    assert results["delta/noop_s"] >= 0
    assert "delta/noop_ratio" in results
    assert "delta/edit4_s" in results


def test_watch_cli_completes_a_round(capsys, tmp_path):
    for app in build_catalog()[:2]:
        write_chart_dir(tmp_path, app)
    code = cli_main(["watch", str(tmp_path), "--rounds", "1", "--interval", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "round 1: 2 charts (2 added)" in out


def test_watch_cli_quarantines_a_broken_chart(capsys, tmp_path):
    for app in build_catalog()[:2]:
        write_chart_dir(tmp_path, app)
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "values.yaml").write_text("replicas: [unclosed\n", encoding="utf-8")
    code = cli_main(["watch", str(tmp_path), "--rounds", "2", "--interval", "0"])
    first, second = capsys.readouterr().out.splitlines()
    assert code == 0
    assert first.startswith("round 1: 2 charts (2 added)")
    assert first.endswith("1 quarantined")
    assert second.startswith("round 2: 2 charts (2 unchanged)")
    assert second.endswith("1 quarantined")


def test_store_sweep_reports_epoch_transition(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    code = cli_main(["sweep", "--sample", str(SAMPLE), "--store", store_dir])
    assert code == 0
    capsys.readouterr()
    code = cli_main(["sweep", "--sample", str(SAMPLE), "--store", store_dir])
    out = capsys.readouterr().out
    assert code == 0
    # Nothing changed, so the journal is not rotated: the epoch holds.
    assert "delta: epoch 1 -> 1" in out
    assert f"{SAMPLE} unchanged" in out
    assert f"store: {SAMPLE} loaded, 0 computed" in out


@pytest.mark.parametrize(
    ("stored", "current", "counts"),
    [(4, 5, "4 unchanged, 1 added"), (6, 4, "4 unchanged, 2 removed")],
    ids=["grown", "shrunk"],
)
def test_store_sweep_over_a_changed_catalogue(capsys, tmp_path, stored, current, counts):
    store_dir = str(tmp_path / "store")
    assert cli_main(["sweep", "--sample", str(stored), "--store", store_dir]) == 0
    capsys.readouterr()
    code = cli_main(["sweep", "--sample", str(current), "--store", store_dir])
    captured = capsys.readouterr()
    assert code == 0
    # A changed catalogue rotates the journal to a new epoch.  That is the
    # normal case for a delta, not a degraded store.
    assert f"delta: epoch 1 -> 2; {counts}\n" in captured.out
    assert "StoreIntegrity" not in captured.err
