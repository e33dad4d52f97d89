"""The one sweep engine behind full, durable and delta sweeps.

Pins what every sweep shares because it runs on the same engine:

* a duplicate ``(dataset, name)`` chart key is rejected with a
  ``ValueError`` naming the key before any chart runs or the store is
  touched, and watch mode quarantines a chart directory whose chart name
  an earlier directory already took, so two watched charts never collide;
* ``max_attempts`` below 1 is one ``ValueError`` on the serial, pool and
  delta paths alike;
* a fault plan the caller armed with :func:`repro.faults.arm` governs a
  sweep run without ``fault_plan=`` (serial and pooled) and stays armed,
  while an explicit ``fault_plan=`` restores the caller's plan afterwards,
  also when the sweep raises;
* a custom analyzer with ``workers=2`` runs serially, on the calling
  thread, and matches ``workers=None`` byte for byte, failure records
  included.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro import faults
from repro.core import MisconfigurationAnalyzer
from repro.datasets import build_catalog
from repro.experiments import (
    FAILURE_STAGE_LOAD,
    DeltaEvaluator,
    run_full_evaluation,
    scan_chart_directory,
    watch_directory,
)
from repro.helm import dump_values
from repro.store import ResultStore
from tests.support.diffing import assert_identical, canonical_evaluation

SAMPLE = 4
BACKOFF = 0.001


@pytest.fixture(scope="module")
def applications():
    return build_catalog()[:SAMPLE]


@pytest.fixture
def caller_plan():
    """Put back whatever plan was armed before the test armed its own."""
    previous = faults.armed_plan()
    yield
    faults.arm(previous)


def uid(app) -> str:
    return f"{app.dataset}/{app.name}"


def poison(app) -> faults.FaultPlan:
    """A plan that fails ``app`` at rule evaluation on every attempt."""
    return faults.FaultPlan(faults.FaultSpec(faults.RULES, charts=(uid(app),), attempts=99))


def full_sweep(applications, **kwargs):
    return run_full_evaluation(applications=applications, retry_backoff=BACKOFF, **kwargs)


def delta_sweep(applications, **kwargs):
    return DeltaEvaluator(retry_backoff=BACKOFF).evaluate(applications, **kwargs)


SWEEPS = {"full": full_sweep, "delta": delta_sweep}


def write_chart_dir(root: Path, directory: str, app, chart_name: str) -> None:
    """Write ``app``'s chart to ``root/directory`` under ``chart_name``."""
    chart_dir = root / directory
    (chart_dir / "templates").mkdir(parents=True)
    metadata = dict(app.chart.metadata.to_dict(), name=chart_name)
    (chart_dir / "Chart.yaml").write_text(dump_values(metadata), encoding="utf-8")
    (chart_dir / "values.yaml").write_text(dump_values(app.chart.values), encoding="utf-8")
    for template in app.chart.templates:
        (chart_dir / "templates" / template.name).write_text(template.source, encoding="utf-8")


class TestDuplicateChartKeys:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_duplicate_key_is_rejected(self, applications, sweep):
        duplicated = list(applications) + [applications[1]]
        with pytest.raises(ValueError, match=f"duplicate chart key {uid(applications[1])}"):
            SWEEPS[sweep](duplicated)

    def test_durable_sweep_rejects_duplicates_before_touching_the_store(
        self, applications, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        duplicated = [applications[0], applications[0]]
        with pytest.raises(ValueError, match=uid(applications[0])):
            full_sweep(duplicated, store=store)
        # No journal, no entries: the store root is as the constructor left it.
        assert list(store.root.iterdir()) == []
        with pytest.raises(ValueError, match=uid(applications[0])):
            DeltaEvaluator(store=store, retry_backoff=BACKOFF).evaluate(duplicated)
        assert list(store.root.iterdir()) == []

    def test_scan_quarantines_a_taken_chart_name(self, applications, tmp_path):
        write_chart_dir(tmp_path, "alpha", applications[0], "shared")
        write_chart_dir(tmp_path, "beta", applications[0], "shared")
        scan = scan_chart_directory(tmp_path)
        assert [chart.name for chart in scan] == ["shared"]
        assert Path(scan[0].scan_key[0]).name == "alpha"
        [failure] = scan.failed
        assert (failure.dataset, failure.name, failure.stage) == (
            "watch", "beta", FAILURE_STAGE_LOAD
        )
        assert str(tmp_path / "alpha") in failure.message
        assert scan.stats == {"dirs": 2, "reused": 0, "parsed": 1, "load_failed": 1}

    def test_watch_rounds_with_a_shared_name_recompute_nothing(self, applications, tmp_path):
        write_chart_dir(tmp_path, "alpha", applications[0], "shared")
        write_chart_dir(tmp_path, "beta", applications[1], "shared")
        rounds = []
        watch_directory(
            tmp_path,
            rounds=4,
            interval=0,
            on_round=lambda number, result: rounds.append(result),
            printer=lambda line: None,
            sleep=lambda seconds: None,
        )
        for result in rounds:
            assert [failure.name for failure in result.failed] == ["beta"]
            assert len(result.analyzed) == 1
        for result in rounds[1:]:
            stats = result.delta_stats
            assert stats["classified"]["unchanged"] == 1
            assert stats["recomputed"] == 0
            assert stats["scan"] == {"dirs": 2, "reused": 1, "parsed": 0, "load_failed": 1}


class TestMaxAttempts:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pooled"])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_below_one_is_rejected(self, applications, sweep, workers):
        with pytest.raises(ValueError, match="max_attempts must be at least 1, got 0"):
            if sweep == "full":
                full_sweep(applications, workers=workers, max_attempts=0)
            else:
                DeltaEvaluator(max_attempts=0).evaluate(applications, workers=workers)

    def test_rejected_before_any_chart_runs(self, applications, tmp_path):
        analyzer = RecordingAnalyzer()
        with pytest.raises(ValueError, match="max_attempts"):
            full_sweep(applications, analyzer=analyzer, max_attempts=-1)
        assert analyzer.threads == set()
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="max_attempts"):
            full_sweep(applications, workers=2, max_attempts=0, store=store)
        assert list(store.root.iterdir()) == []


class TestCallerArmedPlans:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pooled"])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_plan_armed_by_the_caller_applies_and_stays_armed(
        self, applications, caller_plan, sweep, workers
    ):
        plan = poison(applications[1])
        faults.arm(plan)
        result = SWEEPS[sweep](applications, workers=workers)
        assert [failure.unique_id for failure in result.failed] == [uid(applications[1])]
        assert faults.armed_plan() is plan

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_explicit_plan_restores_the_callers_plan(self, applications, caller_plan, sweep):
        callers = poison(applications[0])
        faults.arm(callers)
        result = SWEEPS[sweep](applications, fault_plan=poison(applications[2]))
        assert [failure.unique_id for failure in result.failed] == [uid(applications[2])]
        assert faults.armed_plan() is callers
        with pytest.raises(ValueError, match="duplicate chart key"):
            SWEEPS[sweep](
                list(applications) + [applications[3]], fault_plan=poison(applications[2])
            )
        assert faults.armed_plan() is callers


class RecordingAnalyzer(MisconfigurationAnalyzer):
    """A custom analyzer that records the threads it analyzes charts on."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[int] = set()

    def analyze_chart(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        return super().analyze_chart(*args, **kwargs)


class TestCustomAnalyzer:
    def test_workers_run_serially_and_match_byte_for_byte(self, applications):
        plan = poison(applications[1])
        results = {}
        for workers in (None, 2):
            analyzer = RecordingAnalyzer()
            results[workers] = full_sweep(
                applications, analyzer=analyzer, workers=workers, fault_plan=plan
            )
            assert analyzer.threads == {threading.get_ident()}
        serial, pooled = results[None], results[2]
        assert [failure.unique_id for failure in serial.failed] == [uid(applications[1])]
        assert [failure.to_dict() for failure in pooled.failed] == [
            failure.to_dict() for failure in serial.failed
        ]
        assert_identical(
            canonical_evaluation(serial),
            canonical_evaluation(pooled),
            "custom analyzer, workers=2 vs workers=None",
        )
