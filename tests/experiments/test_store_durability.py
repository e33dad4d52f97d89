"""Durable-sweep differential and chaos suite for the result store.

The invariant under test: **the store changes how fast a sweep runs, never
what it computes**.  Every scenario reduces to byte-identity against a
store-free baseline via :func:`tests.support.diffing.canonical_evaluation`:

* store off == cold store == warm store,
* identical evaluations compare equal as ``EvaluationResult`` values,
  whether computed or loaded,
* a store written under another string-hash seed serves the same M4*
  findings: a loaded label set rehashes in the reader,
* an interrupted sweep resumed finishes with identical output, and an
  interrupt (``KeyboardInterrupt``) still publishes the open group,
* computed charts commit in time-bounded groups
  (:data:`repro.store.GROUP_COMMIT_S`), and the number of commits a sweep
  makes is pinned,
* a writer killed after a group's inserts and before its ``COMMIT`` (a
  genuine ``kill -9`` mid-publish) leaves no torn entry and loses only the
  group it was publishing -- entries and journal records alike -- at a
  bound of 0 (one chart per group), at the default bound and unbounded,
* a failed group commit rolls the whole group back and journals each of
  its charts alone, a computed one as ``computed-unstored``,
* every corruption mode (truncation, bit-flip, version skew) is detected,
  counted, evicted and recomputed -- never served, never fatal,
* two concurrent sweeps over one store directory both succeed with
  identical output and leave only verified entries behind,
* a payload with a valid header that would run code when unpickled is
  refused, counted as corruption and recomputed -- never executed,
* a chart quarantined mid-sweep leaves no result row and a ``failed``
  journal record with fingerprints, so the next journal plan names it
  ``prior failure`` and the next durable sweep recomputes it alone,
* failed journal commits are counted and named in the ``StoreIntegrity``
  hint,
* the sweep journal drops records whose seal fails, continues its epoch
  while the sweep identity holds and rotates on identity mismatch,
  keeping the superseded generation.

The fast tests run over an 8-chart sample; the ``slow``-marked full-catalogue
differential covers all 290 charts (acceptance criterion for PR 7).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import pickle
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro import store as store_module
from repro.core import AnalyzerSettings, MisconfigurationAnalyzer
from repro.datasets import build_catalog
from repro.experiments import (
    DELTA_RE_RENDER,
    DELTA_UNCHANGED,
    journal_plan,
    run_full_evaluation,
)
from repro.experiments import evaluation
from repro.experiments.evaluation import result_key, settings_fingerprint
from repro.helm import render_chart
from repro.k8s import Inventory
from repro.store import (
    KIND_RESULT,
    PriorState,
    ResultStore,
    SweepJournal,
    read_prior_state,
    store_hint,
    store_key,
)
from tests.support import store_db
from tests.support.diffing import (
    assert_identical,
    canonical_evaluation,
    canonical_json,
    canonical_report,
)

SAMPLE = 8
MAX_ATTEMPTS = 3
BACKOFF = 0.001

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def applications():
    return build_catalog()[:SAMPLE]


@pytest.fixture(scope="module")
def baseline(applications):
    result = run_full_evaluation(applications=applications)
    assert not result.failed
    return canonical_evaluation(result)


def chart_key(applications, index: int) -> str:
    app = applications[index]
    return f"{app.dataset}/{app.name}"


class Planted:
    """A payload that runs code when unpickled: it creates ``marker``."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestStoreDifferential:
    def test_cold_then_warm_store_byte_identical(self, applications, baseline, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = run_full_evaluation(applications=applications, store=store)
        assert not cold.failed
        assert cold.store_stats["computed"] == SAMPLE
        assert cold.store_stats["loaded"] == 0
        # One row per computed chart: its result, nothing else.
        assert store.stats()["writes"] == SAMPLE
        rows = store_db.query(store.root, "SELECT kind, COUNT(*) FROM entries GROUP BY kind")
        assert rows == [(KIND_RESULT, SAMPLE)]
        assert_identical(baseline, canonical_evaluation(cold), "cold store vs store-off")

        warm_store = ResultStore(tmp_path / "store")
        warm = run_full_evaluation(applications=applications, store=warm_store)
        assert not warm.failed
        assert warm.store_stats["loaded"] == SAMPLE
        assert warm.store_stats["computed"] == 0
        assert_identical(baseline, canonical_evaluation(warm), "warm store vs store-off")

    def test_warm_store_identical_on_parallel_path(self, applications, baseline, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = run_full_evaluation(applications=applications, workers=2, store=store)
        assert not cold.failed
        assert_identical(baseline, canonical_evaluation(cold), "pool cold store")
        warm = run_full_evaluation(
            applications=applications, workers=2, store=ResultStore(tmp_path / "store")
        )
        assert warm.store_stats["loaded"] == SAMPLE
        assert_identical(baseline, canonical_evaluation(warm), "pool warm store")

    def test_partial_sweep_resumed_is_identical(self, applications, baseline, tmp_path):
        store_dir = tmp_path / "store"
        partial = run_full_evaluation(
            applications=applications[: SAMPLE // 2], store=ResultStore(store_dir)
        )
        assert partial.store_stats["computed"] == SAMPLE // 2
        resumed = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert not resumed.failed
        assert resumed.store_stats["loaded"] == SAMPLE // 2
        assert resumed.store_stats["computed"] == SAMPLE - SAMPLE // 2
        assert_identical(baseline, canonical_evaluation(resumed), "resumed sweep")

    def test_identical_evaluations_compare_equal(self, applications, tmp_path):
        # Where results came from must never make two identical
        # evaluations compare different.
        store_off = run_full_evaluation(applications=applications)
        assert store_off == run_full_evaluation(applications=applications)
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        warm = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert warm.store_stats["loaded"] == SAMPLE
        assert warm == store_off

    def test_label_surface_round_trips_through_the_decoder(self, applications):
        inventory = Inventory(render_chart(applications[0].chart).objects)
        surface = inventory.label_surface()
        assert inventory.label_surface() is surface
        assert surface.label_surface() is surface
        assert surface.units and surface.services
        for _, _, labels in surface.units:
            hash(labels)  # the memo a writer's M4* pass leaves behind
        payload = pickle.dumps(surface, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = store_module._TrustedUnpickler(io.BytesIO(payload)).load()
        assert loaded == surface
        label_sets = [labels for _, _, labels in loaded.units]
        label_sets += [selector.match_labels for _, _, selector in loaded.services]
        for labels in label_sets:
            assert labels._hash is None and labels._items is None

    def test_analyzer_with_settings_is_rejected(self, applications):
        with pytest.raises(ValueError, match="either analyzer or settings"):
            run_full_evaluation(
                applications=applications,
                analyzer=MisconfigurationAnalyzer(),
                settings=AnalyzerSettings(),
            )

    def test_default_settings_fingerprint_is_pinned(self):
        # Result keys hash this text: if it moved, every existing store
        # would go cold.
        assert settings_fingerprint(AnalyzerSettings()) == (
            '{"compiled_rules": true, "double_snapshot": true, '
            '"host_port_filtering": true, "mode": "hybrid", "observe_mode": "fast", '
            '"pooled_clusters": true, "seed": 2025, "worker_count": 3}'
        )

    @pytest.mark.slow
    def test_full_catalogue_store_differential(self, tmp_path):
        applications = build_catalog()
        baseline = run_full_evaluation(applications=applications)
        assert not baseline.failed
        cold = run_full_evaluation(
            applications=applications, store=ResultStore(tmp_path / "store")
        )
        warm = run_full_evaluation(
            applications=applications, store=ResultStore(tmp_path / "store")
        )
        assert warm.store_stats["loaded"] == len(applications)
        assert_identical(
            canonical_evaluation(baseline),
            canonical_evaluation(cold),
            "full-catalogue cold store",
        )
        assert_identical(
            canonical_evaluation(baseline),
            canonical_evaluation(warm),
            "full-catalogue warm store",
        )


#: Child process: runs a durable sweep with a ``kill`` fault armed at the
#: ``store.write`` site for one victim chart -- it dies via ``os._exit(3)``
#: after the inserts of the group holding the victim and before its
#: ``COMMIT``, like a power cut.  ``bound`` sets ``GROUP_COMMIT_S`` (a
#: number of seconds, or ``default``).
KILL_CHILD = """
import sys
from repro import faults, store
from repro.datasets import build_catalog
from repro.experiments import run_full_evaluation

store_dir, victim, sample, bound = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
if bound != "default":
    store.GROUP_COMMIT_S = float(bound)
faults.mark_pool_worker()  # enable genuine os._exit kills in this process
plan = faults.FaultPlan(
    faults.FaultSpec(faults.STORE_WRITE, charts=(victim,), attempts=99, kind="kill")
)
run_full_evaluation(
    applications=build_catalog()[:sample], store=store_dir, fault_plan=plan
)
sys.exit(0)  # unreachable: the kill fires during the victim's publish
"""


def kill_mid_publish(applications, store_dir: Path, victim: int, bound: str) -> None:
    """Run :data:`KILL_CHILD` over the sample; it must die at the victim's group commit."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            KILL_CHILD,
            str(store_dir),
            chart_key(applications, victim),
            str(SAMPLE),
            bound,
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert completed.returncode == 3, completed.stderr

#: Child process: one full durable sweep against a shared store directory;
#: writes the canonical reports as JSON so the parent can diff them.
CONCURRENT_CHILD = """
import json
import sys
from repro.datasets import build_catalog
from repro.experiments import run_full_evaluation

store_dir, out_path, sample = sys.argv[1], sys.argv[2], int(sys.argv[3])
result = run_full_evaluation(applications=build_catalog()[:sample], store=store_dir)
assert not result.failed
payload = [entry.report.to_dict() for entry in result.analyzed]
with open(out_path, "w", encoding="utf-8") as handle:
    json.dump(payload, handle, sort_keys=True, default=str)
"""


class TestCrashAndConcurrency:
    def test_store_written_under_another_hash_seed(self, tmp_path):
        # Catalogue positions 51 and 52 carry the same pod labels, an M4*
        # collision.  The writer stores position 51; the reader, under a
        # different string-hash seed, loads it and computes position 52.
        def sweep(hash_seed: str, *args: str) -> list[str]:
            env = subprocess_env()
            env["PYTHONHASHSEED"] = hash_seed
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "sweep", *args],
                capture_output=True, text=True, env=env, cwd=str(REPO_ROOT), timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout.splitlines()

        store_dir = str(tmp_path / "store")
        sweep("1", "--sample", "52", "--store", store_dir)
        durable = sweep("2", "--sample", "53", "--store", store_dir)
        assert durable[0] == "delta: epoch 1 -> 2; 52 unchanged, 1 added"
        assert durable[-1].startswith("store: 52 loaded, 1 computed")
        assert durable[1:-1] == sweep("2", "--sample", "53")

    def test_kill_nine_mid_publish_then_resume(self, applications, baseline, tmp_path):
        store_dir = tmp_path / "store"
        victim = SAMPLE // 2
        # At a bound of 0 every chart is its own group.
        kill_mid_publish(applications, store_dir, victim, "0")
        # The serial sweep published charts 0..victim-1 before dying; no
        # entry the dead writer left behind may be torn.
        store = ResultStore(store_dir)
        scan = store.verify_all()
        assert scan["defective"] == 0
        assert scan["healthy"] >= victim
        # The commit is the crash point: every chart before the victim has
        # both its result entry and its journal record, the victim neither.
        settings_fp = settings_fingerprint(AnalyzerSettings())
        stored = {key for (key,) in store_db.query(store_dir, "SELECT key FROM entries")}
        recorded = set(read_prior_state(store_dir).records)
        # Only result rows exist, so the kill landed in the victim's
        # result-plus-record transaction and nowhere else.
        assert store_db.query(store_dir, "SELECT DISTINCT kind FROM entries") == [(KIND_RESULT,)]
        for index in range(victim + 1):
            published = index < victim
            assert (result_key(applications[index], settings_fp) in stored) is published
            assert (chart_key(applications, index) in recorded) is published
        resumed = run_full_evaluation(applications=applications, store=store)
        assert not resumed.failed
        assert resumed.store_stats["loaded"] == victim
        assert resumed.store_stats["computed"] == SAMPLE - victim
        # Same catalogue, same identity: the killed sweep's journal goes on.
        assert resumed.store_stats["journal_rotated"] is None
        assert resumed.store_stats["journal_epoch"] == 1
        assert resumed.store_stats["resumed"] == victim
        assert_identical(baseline, canonical_evaluation(resumed), "kill-9 resume")

    def test_kill_nine_in_an_unbounded_group_loses_the_sweep(
        self, applications, baseline, tmp_path
    ):
        # Unbounded, the one group commits when the sweep ends: the kill at
        # the victim's publish loses every chart of the sweep, whole.
        store_dir = tmp_path / "store"
        kill_mid_publish(applications, store_dir, SAMPLE // 2, "inf")
        store = ResultStore(store_dir)
        assert store.verify_all() == {"healthy": 0, "defective": 0}
        prior = read_prior_state(store_dir)
        assert (prior.epoch, prior.records) == (1, {})
        resumed = run_full_evaluation(applications=applications, store=store)
        assert not resumed.failed
        assert resumed.store_stats["journal_rotated"] is None
        assert resumed.store_stats["journal_epoch"] == 1
        assert resumed.store_stats["loaded"] == 0
        assert resumed.store_stats["computed"] == SAMPLE
        assert_identical(baseline, canonical_evaluation(resumed), "unbounded kill-9 resume")

    def test_kill_nine_at_the_default_bound_keeps_groups_whole(
        self, applications, baseline, tmp_path
    ):
        store_dir = tmp_path / "store"
        victim = SAMPLE // 2
        kill_mid_publish(applications, store_dir, victim, "default")
        store = ResultStore(store_dir)
        assert store.verify_all()["defective"] == 0
        settings_fp = settings_fingerprint(AnalyzerSettings())
        keys = [result_key(app, settings_fp) for app in applications]
        stored = {key for (key,) in store_db.query(store_dir, "SELECT key FROM entries")}
        records = read_prior_state(store_dir).records
        # Whatever groups committed before the kill did so whole: every
        # stored row has its ``ok`` record and every record its row.
        assert stored == {record["result"] for record in records.values() if record["status"] == "ok"}
        assert set(records) == {chart_key(applications, keys.index(key)) for key in stored}
        assert keys[victim] not in stored
        assert chart_key(applications, victim) not in records
        assert stored <= set(keys[:victim])
        resumed = run_full_evaluation(applications=applications, store=store)
        assert not resumed.failed
        assert resumed.store_stats["loaded"] == len(stored)
        assert resumed.store_stats["computed"] == SAMPLE - len(stored)
        loaded = {
            record["result"] for record in read_prior_state(store_dir).records.values()
            if record["source"] == "store"
        }
        assert loaded == stored
        assert_identical(baseline, canonical_evaluation(resumed), "default-bound kill-9 resume")

    def test_two_concurrent_sweeps_share_one_store(self, baseline, tmp_path):
        store_dir = tmp_path / "store"
        outputs = [tmp_path / "a.json", tmp_path / "b.json"]
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    CONCURRENT_CHILD,
                    str(store_dir),
                    str(out),
                    str(SAMPLE),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=subprocess_env(),
                cwd=str(REPO_ROOT),
            )
            for out in outputs
        ]
        for child in children:
            _, stderr = child.communicate(timeout=300)
            assert child.returncode == 0, stderr
        payloads = [json.loads(out.read_text(encoding="utf-8")) for out in outputs]
        # Both racers computed identical reports, both matching the
        # store-free baseline (default=str below mirrors the children's
        # serialization so the canonical forms are comparable).
        assert canonical_json(payloads[0]) == canonical_json(payloads[1])
        assert canonical_json(payloads[0]) == canonical_json(
            json.loads(json.dumps(baseline, sort_keys=True, default=str))
        )
        # Both racers committed only whole rows -- nothing torn.
        scan = ResultStore(store_dir).verify_all()
        assert scan["defective"] == 0
        assert scan["healthy"] > 0
        warm = run_full_evaluation(
            applications=build_catalog()[:SAMPLE], store=ResultStore(store_dir)
        )
        assert warm.store_stats["loaded"] == SAMPLE
        assert_identical(baseline, canonical_evaluation(warm), "post-race warm sweep")


class TestStoreChaos:
    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_corruption_detected_evicted_recomputed(
        self, applications, baseline, tmp_path, mode
    ):
        store_dir = tmp_path / f"store-{mode}"
        prime = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert not prime.failed
        victims = tuple(chart_key(applications, index) for index in range(SAMPLE))
        plan = faults.FaultPlan(
            faults.FaultSpec(
                faults.STORE_READ,
                charts=victims,
                attempts=99,
                kind="corrupt",
                corruption=mode,
            )
        )
        store = ResultStore(store_dir)
        result = run_full_evaluation(
            applications=applications,
            store=store,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert not result.failed
        stats = store.stats()
        if mode == faults.CORRUPT_VERSION:
            assert stats["version_skew"] >= 1
        else:
            assert stats["corruptions"] >= 1
        assert stats["evictions"] >= 1
        assert_identical(
            baseline, canonical_evaluation(result), f"{mode}-corrupted store"
        )
        # The sweep republished what it evicted: a fresh fault-free sweep
        # is warm again.
        warm = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert warm.store_stats["loaded"] == SAMPLE
        assert_identical(baseline, canonical_evaluation(warm), f"re-warmed after {mode}")

    def test_write_failures_degrade_to_unstored(self, applications, baseline, tmp_path):
        store = ResultStore(tmp_path / "store")
        plan = faults.FaultPlan(
            faults.FaultSpec(faults.STORE_WRITE, charts=None, attempts=99)
        )
        result = run_full_evaluation(
            applications=applications,
            store=store,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        # Every publish failed; every computation still succeeded.
        assert not result.failed
        assert result.store_stats["computed"] == SAMPLE
        assert result.store_stats["unstored"] == SAMPLE
        assert store.stats()["write_failures"] >= SAMPLE
        assert store.verify_all()["defective"] == 0
        assert_identical(baseline, canonical_evaluation(result), "unstored sweep")

    def test_quarantined_chart_is_recomputed_alone_next_round(
        self, applications, baseline, tmp_path
    ):
        store_dir = tmp_path / "store"
        victim = 3
        uid = chart_key(applications, victim)
        plan = faults.FaultPlan(faults.FaultSpec(faults.RULES, charts=(uid,), attempts=99))
        poisoned = run_full_evaluation(
            applications=applications,
            store=ResultStore(store_dir),
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert [failure.unique_id for failure in poisoned.failed] == [uid]
        assert poisoned.store_stats["failed"] == 1
        assert poisoned.store_stats["computed"] == SAMPLE - 1
        settings_fp = settings_fingerprint(AnalyzerSettings())
        stored = {key for (key,) in store_db.query(store_dir, "SELECT key FROM entries")}
        assert result_key(applications[victim], settings_fp) not in stored
        record = read_prior_state(store_dir).records[uid]
        assert record["status"] == "failed"
        assert {"chart", "behaviors", "settings"} <= set(record["fp"])

        healed = run_full_evaluation(
            applications=applications, store=ResultStore(store_dir), retry_backoff=BACKOFF
        )
        classified = [
            (delta.classification, delta.reasons)
            for delta in journal_plan(healed.store_stats["journal_prior"], applications).charts
        ]
        expected = [(DELTA_UNCHANGED, ())] * SAMPLE
        expected[victim] = (DELTA_RE_RENDER, ("prior failure",))
        assert classified == expected
        assert not healed.failed
        assert healed.store_stats["computed"] == 1
        assert healed.store_stats["loaded"] == SAMPLE - 1
        assert_identical(baseline, canonical_evaluation(healed), "round after quarantine")

    def test_crafted_payload_is_refused_not_run(self, applications, baseline, tmp_path):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        # The payload is live: a plain unpickle runs it.
        probe = tmp_path / "probe"
        pickle.loads(pickle.dumps(Planted(str(probe))))
        assert probe.exists()
        # Plant it under a result key with a correct size, digest, schema
        # and kind: only the decoder stands between it and every reader.
        marker = tmp_path / "marker"
        payload = pickle.dumps(Planted(str(marker)))
        key = result_key(applications[0], settings_fingerprint(AnalyzerSettings()))
        store_db.execute(
            store_dir,
            "UPDATE entries SET payload = ?, size = ?, sha256 = ? WHERE key = ?",
            (payload, len(payload), hashlib.sha256(payload).hexdigest(), key),
        )
        assert ResultStore(store_dir).verify_all() == {"healthy": SAMPLE, "defective": 0}
        store = ResultStore(store_dir)
        result = run_full_evaluation(applications=applications, store=store)
        assert not marker.exists()
        assert store.stats()["corruptions"] == 1
        assert store.stats()["evictions"] == 1
        assert result.store_stats["loaded"] == SAMPLE - 1
        assert result.store_stats["computed"] == 1
        assert_identical(baseline, canonical_evaluation(result), "crafted-payload store")

    def test_journal_commit_failures_are_counted_and_hinted(
        self, applications, baseline, tmp_path, monkeypatch
    ):
        transact = store_module._Database.transact

        def disk_full_for_journal(self, work, fault_site=None):
            # Any commit carrying a journal record fails as a full disk would.
            if any(sql == store_module._INSERT_RECORD for sql, _ in self.staged):
                self.staged = []
                raise sqlite3.OperationalError("database or disk is full")
            return transact(self, work, fault_site)

        monkeypatch.setattr(store_module._Database, "transact", disk_full_for_journal)
        store = ResultStore(tmp_path / "store")
        result = run_full_evaluation(applications=applications, store=store)
        assert not result.failed
        stats = result.store_stats
        # Each chart's shared entry+record commit failed (a failed write),
        # then its computed-unstored record failed alone (a journal failure).
        assert stats["store"]["journal_failures"] == SAMPLE
        assert stats["unstored"] == SAMPLE
        assert read_prior_state(store.root).records == {}
        hint = store_hint(stats["store"], stats["root"], rotated=stats["journal_rotated"])
        assert f"{SAMPLE} failed journal commits" in hint
        assert_identical(baseline, canonical_evaluation(result), "journal-failure sweep")

    def test_read_errors_degrade_to_recompute(self, applications, baseline, tmp_path):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        store = ResultStore(store_dir)
        plan = faults.FaultPlan(
            faults.FaultSpec(faults.STORE_READ, charts=None, attempts=99)
        )
        result = run_full_evaluation(
            applications=applications,
            store=store,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert not result.failed
        assert result.store_stats["loaded"] == 0
        assert result.store_stats["computed"] == SAMPLE
        assert store.stats()["read_errors"] >= 1
        assert_identical(baseline, canonical_evaluation(result), "read-error sweep")


def count_commits(monkeypatch) -> list[int]:
    """Record the number of staged statements each store transaction carries."""
    transact = store_module._Database.transact
    staged: list[int] = []

    def counted(self, work, fault_site=None):
        staged.append(len(self.staged))
        return transact(self, work, fault_site)

    monkeypatch.setattr(store_module._Database, "transact", counted)
    return staged


class TestGroupCommit:
    @pytest.mark.parametrize(
        "bound, commits",
        [
            # ``begin``, then one group: every result row with its record.
            (math.inf, [0, 2 * SAMPLE]),
            # ``begin``, then one group per chart.
            (0.0, [0] + [2] * SAMPLE),
        ],
        ids=["unbounded", "zero"],
    )
    def test_cold_sweep_commits_per_group(
        self, applications, baseline, tmp_path, monkeypatch, bound, commits
    ):
        monkeypatch.setattr(store_module, "GROUP_COMMIT_S", bound)
        staged = count_commits(monkeypatch)
        cold = run_full_evaluation(applications=applications, store=ResultStore(tmp_path / "store"))
        assert staged == commits
        assert cold.store_stats["computed"] == SAMPLE
        assert_identical(baseline, canonical_evaluation(cold), f"cold store, bound {bound}")

    def test_warm_sweep_commits_twice(self, applications, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        staged = count_commits(monkeypatch)
        warm = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert warm.store_stats["loaded"] == SAMPLE
        # ``begin``, then the loaded charts' records; no empty transaction.
        assert staged == [0, SAMPLE]

    def test_failed_group_commit_journals_each_chart_alone(
        self, applications, baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "GROUP_COMMIT_S", math.inf)
        store_dir = tmp_path / "store"
        half = SAMPLE // 2
        run_full_evaluation(applications=applications[:half], store=ResultStore(store_dir))
        # One group holds every chart the sweep computes or quarantines:
        # charts half.. SAMPLE-1, one of them quarantined, the store.write
        # error aimed at another.
        quarantined, victim = half + 1, half + 2
        plan = faults.FaultPlan(
            faults.FaultSpec(faults.RULES, charts=(chart_key(applications, quarantined),),
                             attempts=99),
            faults.FaultSpec(faults.STORE_WRITE, charts=(chart_key(applications, victim),),
                             attempts=99),
        )
        store = ResultStore(store_dir)
        result = run_full_evaluation(
            applications=applications,
            store=store,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert [failure.unique_id for failure in result.failed] == [
            chart_key(applications, quarantined)
        ]
        stats = result.store_stats
        computed = SAMPLE - half - 1
        assert (stats["loaded"], stats["computed"], stats["failed"]) == (half, computed, 1)
        assert stats["unstored"] == computed
        assert store.stats()["write_failures"] == computed
        settings_fp = settings_fingerprint(AnalyzerSettings())
        keys = [result_key(app, settings_fp) for app in applications]
        stored = {key for (key,) in store_db.query(store_dir, "SELECT key FROM entries")}
        assert stored == set(keys[:half])
        records = read_prior_state(store_dir).records
        expected = {chart_key(applications, index): ("ok", "store") for index in range(half)}
        for index in range(half, SAMPLE):
            expected[chart_key(applications, index)] = (
                ("failed", "computed") if index == quarantined else ("ok", "computed-unstored")
            )
        assert {chart: (rec["status"], rec["source"]) for chart, rec in records.items()} == expected

        healed = run_full_evaluation(
            applications=applications, store=ResultStore(store_dir), retry_backoff=BACKOFF
        )
        assert not healed.failed
        recomputed = {
            chart for chart, record in read_prior_state(store_dir).records.items()
            if record["source"] == "computed"
        }
        assert recomputed == {chart_key(applications, index) for index in range(half, SAMPLE)}
        assert_identical(baseline, canonical_evaluation(healed), "after a failed group commit")

    def test_interrupted_sweep_publishes_its_open_group(
        self, applications, baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "GROUP_COMMIT_S", math.inf)
        interrupt_at = SAMPLE // 2
        run_isolated = evaluation._run_isolated

        def interrupted(app, *args):
            if app is applications[interrupt_at]:
                raise KeyboardInterrupt
            return run_isolated(app, *args)

        monkeypatch.setattr(evaluation, "_run_isolated", interrupted)
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        settings_fp = settings_fingerprint(AnalyzerSettings())
        keys = [result_key(app, settings_fp) for app in applications]
        stored = {key for (key,) in store_db.query(store_dir, "SELECT key FROM entries")}
        assert stored == set(keys[:interrupt_at])
        records = read_prior_state(store_dir).records
        assert {chart: (rec["status"], rec["source"]) for chart, rec in records.items()} == {
            chart_key(applications, index): ("ok", "computed") for index in range(interrupt_at)
        }

        monkeypatch.setattr(evaluation, "_run_isolated", run_isolated)
        resumed = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert resumed.store_stats["loaded"] == interrupt_at
        assert resumed.store_stats["computed"] == SAMPLE - interrupt_at
        assert_identical(baseline, canonical_evaluation(resumed), "interrupted sweep resumed")


class TestJournal:
    IDENTITY = store_key(KIND_RESULT, "journal-identity")

    def test_torn_tail_dropped_on_resume(self, tmp_path):
        journal = SweepJournal(tmp_path, self.IDENTITY)
        assert journal.begin() == PriorState(epoch=0, identity=None, records={})
        journal.record("org/app-a", "ok", "key-a")
        journal.record("org/app-b", "ok", "key-b")
        journal.record("org/app-c", "ok", "key-c")
        journal.close()
        # A damaged record: its seal no longer matches what it holds.
        store_db.execute(
            tmp_path, "UPDATE journal SET seal = '0000000000000000' WHERE chart = 'org/app-c'"
        )
        resumed = SweepJournal(tmp_path, self.IDENTITY)
        prior = resumed.begin()
        resumed.close()
        assert set(prior.records) == {"org/app-a", "org/app-b"}
        assert prior.dropped_lines == resumed.dropped_lines == 1
        assert resumed.rotated_reason is None

    def test_identity_mismatch_rotates(self, tmp_path):
        journal = SweepJournal(tmp_path, self.IDENTITY)
        journal.begin()
        journal.record("org/app-a", "ok", "key-a")
        journal.close()
        other = SweepJournal(tmp_path, store_key(KIND_RESULT, "different-catalogue"))
        prior = other.begin()
        other.close()
        # It returns the generation it rotated away and leaves none live.
        assert (prior.epoch, set(prior.records)) == (1, {"org/app-a"})
        assert read_prior_state(tmp_path).records == {}
        # A changed catalogue or settings rotates by design: no hint.
        assert other.rotated_reason == SweepJournal.ROTATED_IDENTITY
        assert store_hint({}, tmp_path, rotated=other.rotated_reason) is None
        # The superseded generation is kept next to the new one.
        assert store_db.query(tmp_path, "SELECT epoch, chart FROM journal") == [(1, "org/app-a")]
        assert other.epoch == 2

    def test_stale_writer_cannot_pollute_a_rotated_journal(self, tmp_path):
        stale = SweepJournal(tmp_path, self.IDENTITY)
        stale.begin()
        stale.record("org/app-a", "ok", "key-a")
        changed = store_key(KIND_RESULT, "different-catalogue")
        fresh = SweepJournal(tmp_path, changed)
        assert fresh.begin().epoch == 1
        fresh.record("org/app-b", "ok", "key-b")
        # The first sweep is still running: its records keep its epoch.
        stale.record("org/app-c", "ok", "key-c")
        state = read_prior_state(tmp_path)
        assert (state.epoch, set(state.records)) == (2, {"org/app-b"})
        assert state.dropped_lines == 0  # other generations are never read
        resumed = SweepJournal(tmp_path, changed)
        assert set(resumed.begin().records) == {"org/app-b"}

    def test_same_identity_continues_the_epoch(self, tmp_path):
        journal = SweepJournal(tmp_path, self.IDENTITY)
        journal.begin()
        journal.record("org/app-a", "ok", "key-a")
        journal.record("org/app-b", "failed")
        journal.close()
        again = SweepJournal(tmp_path, self.IDENTITY)
        prior = again.begin()
        assert again.epoch == journal.epoch == prior.epoch == 1
        assert again.rotated_reason is None
        # The live records come back, failed ones included.
        assert {chart: record["status"] for chart, record in prior.records.items()} == {
            "org/app-a": "ok", "org/app-b": "failed",
        }
        # Records of the continued sweep land in the same generation.
        again.record("org/app-b", "ok", "key-b")
        again.close()
        assert store_db.query(tmp_path, "SELECT epoch FROM journal_header") == [(1,)]
        state = read_prior_state(tmp_path)
        assert state.epoch == 1
        assert set(state.completed()) == {"org/app-a", "org/app-b"}

    def test_only_an_unexpected_rotation_hints(self, tmp_path):
        def rotate(identity):
            journal = SweepJournal(tmp_path, identity)
            journal.begin()
            journal.close()
            return journal.rotated_reason

        changed = store_key(KIND_RESULT, "different-catalogue")
        assert rotate(self.IDENTITY) is None
        assert rotate(self.IDENTITY) is None
        assert rotate(changed) == SweepJournal.ROTATED_IDENTITY
        # A header from another schema is damage: it still hints.
        store_db.execute(tmp_path, "UPDATE journal_header SET schema = schema + 1")
        reason = rotate(changed)
        assert "journal rotated (journal header unreadable)" in store_hint(
            {}, tmp_path, rotated=reason
        )


class TestObservationMemo:
    def test_memo_hits_in_process(self, applications):
        from repro.core import MisconfigurationAnalyzer

        app = applications[0]
        analyzer = MisconfigurationAnalyzer()
        first = analyzer.analyze_chart(app.chart, behaviors=app.behaviors)
        hits_before = analyzer.session.memo_stats()["hits"]
        second = analyzer.analyze_chart(app.chart, behaviors=app.behaviors)
        assert analyzer.session.memo_stats()["hits"] == hits_before + 1
        assert_identical(
            canonical_report(first), canonical_report(second), "in-process memo"
        )
