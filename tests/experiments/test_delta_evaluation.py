"""Differential re-verification suite for incremental delta-evaluation.

The invariant under test: **a delta round is byte-identical to a
from-scratch sweep of the same chart set** -- the delta evaluator changes
how much work a sweep does, never what it computes.  Every scenario
reduces to canonical-serialization identity via
:func:`tests.support.diffing.canonical_evaluation`:

* every change class -- values tweaks, template edits, behaviour-seed
  changes, chart additions, chart removals, no-op touches, values key
  reorders, settings changes -- in serial and pooled sweeps,
* Hypothesis-driven multi-round change sequences (each round delta'd
  against the previous, each compared to scratch), and the result-key
  contract over them: a chart is ``unchanged`` exactly when it was
  healthy and its ``result_key`` held,
* chaos interaction: a fault mid-delta quarantines the failing chart
  without serving its stale prior entry, healthy charts stay
  byte-identical, and the recovery round equals a clean scratch sweep,
* the durable path: classification from the store's epoch-tagged journal
  (a record without fingerprints reads as ``added``; the store still
  reuses its entry),
* the ``slow``-marked full-catalogue differential over randomized change
  sets (acceptance criterion for this PR).

Satellites pinned here too: ``EvaluationResult`` lookups after a
same-length mutation or a removal, ``SweepJournal`` superseded-entry
semantics under repeated resume+delta cycles, the classifier-fingerprint
orthogonality table, and the observation memo that keeps a reverted chart
warm.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import random

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import faults
from repro.cluster import BehaviorRegistry, ContainerBehavior, ListenSpec
from repro.core import (
    AnalyzerSettings,
    ApplicationInventory,
    MisconfigClass,
    global_collision_findings,
)
from repro.datasets import InjectionPlan, build_application, build_catalog
from repro.experiments import (
    DELTA_ADDED,
    DELTA_RE_ANALYZE,
    DELTA_RE_OBSERVE,
    DELTA_RE_RENDER,
    DELTA_UNCHANGED,
    DeltaEvaluator,
    classifier_fingerprints,
    result_key,
    run_full_evaluation,
    settings_fingerprint,
)
from repro.helm.chart import ChartTemplate
from repro.store import ResultStore, _seal, read_prior_state
from tests.support import store_db
from tests.support.diffing import assert_identical, canonical_evaluation

SAMPLE = 8
BACKOFF = 0.001


@pytest.fixture(scope="module")
def applications():
    return build_catalog()[:SAMPLE]


def uid(app) -> str:
    return f"{app.dataset}/{app.name}"


# ---------------------------------------------------------------------------
# Mutation helpers: each produces a *new* application list (charts are
# immutable once built; dataclasses.replace resets the cached fingerprint).
# ---------------------------------------------------------------------------


def values_tweak(apps, index, salt="delta-salt"):
    app = apps[index % len(apps)]
    values = copy.deepcopy(app.chart.values)
    values["deltaSalt"] = salt
    chart = dataclasses.replace(app.chart, values=values)
    mutated = list(apps)
    mutated[index % len(apps)] = dataclasses.replace(app, chart=chart)
    return mutated


def template_edit(apps, index, marker="# delta-edit"):
    app = apps[index % len(apps)]
    templates = [ChartTemplate(t.name, t.source) for t in app.chart.templates]
    templates[0] = ChartTemplate(templates[0].name, templates[0].source + f"\n{marker}\n")
    chart = dataclasses.replace(app.chart, templates=templates)
    mutated = list(apps)
    mutated[index % len(apps)] = dataclasses.replace(app, chart=chart)
    return mutated


def behavior_change(apps, index, port=31997):
    app = apps[index % len(apps)]
    registry = BehaviorRegistry()
    for image in app.behaviors.images():
        registry.register(image, app.behaviors.lookup(image))
    images = app.behaviors.images()
    if images:
        prior = app.behaviors.lookup(images[0])
        registry.register(
            images[0],
            ContainerBehavior(
                listen_on_declared=prior.listen_on_declared,
                extra_listens=list(prior.extra_listens) + [ListenSpec(port=port)],
                ignore_declared_ports=set(prior.ignore_declared_ports),
                static_port_env=prior.static_port_env,
            ),
        )
    else:
        registry.register("delta/extra:1.0", ContainerBehavior())
    mutated = list(apps)
    mutated[index % len(apps)] = dataclasses.replace(app, behaviors=registry)
    return mutated


def add_chart(apps, index):
    added = build_application(
        f"delta-added-{index}",
        "Bitnami",
        InjectionPlan(m1=1, m5a=1),
        dataset="Bitnami",
        use_case="sharing",
    )
    return list(apps) + [added]


def remove_chart(apps, index):
    if len(apps) <= 1:
        return list(apps)
    mutated = list(apps)
    del mutated[index % len(mutated)]
    return mutated


def noop_touch(apps, index):
    """Rebuild one chart with byte-equal content: every fingerprint holds."""
    app = apps[index % len(apps)]
    chart = dataclasses.replace(
        app.chart,
        values=copy.deepcopy(app.chart.values),
        templates=[ChartTemplate(t.name, t.source) for t in app.chart.templates],
    )
    mutated = list(apps)
    mutated[index % len(apps)] = dataclasses.replace(app, chart=chart)
    return mutated


def reversed_keys(tree):
    """The same tree with every mapping's key order reversed."""
    if isinstance(tree, dict):
        return {key: reversed_keys(tree[key]) for key in reversed(list(tree))}
    if isinstance(tree, list):
        return [reversed_keys(item) for item in tree]
    return tree


def values_reorder(apps, index):
    """Rebuild one chart with its values in reversed key order: equal content."""
    app = apps[index % len(apps)]
    chart = dataclasses.replace(app.chart, values=reversed_keys(app.chart.values))
    mutated = list(apps)
    mutated[index % len(apps)] = dataclasses.replace(app, chart=chart)
    return mutated


CHANGE_CLASSES = {
    "values": values_tweak,
    "template": template_edit,
    "behaviors": behavior_change,
    "add": add_chart,
    "remove": remove_chart,
    "noop": noop_touch,
    "reorder": values_reorder,
}


# ---------------------------------------------------------------------------
# The headline differential: delta == from-scratch, per change class,
# serial and pooled.
# ---------------------------------------------------------------------------


class TestDeltaDifferential:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pooled"])
    @pytest.mark.parametrize("change", sorted(CHANGE_CLASSES))
    def test_delta_matches_scratch(self, applications, change, workers):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        first = evaluator.evaluate(applications)
        assert first.delta_stats["classified"][DELTA_ADDED] == SAMPLE

        mutated = CHANGE_CLASSES[change](applications, 3)
        result = evaluator.evaluate(mutated, workers=workers)
        assert not result.failed
        scratch = run_full_evaluation(applications=mutated)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            f"delta[{change}] vs scratch",
        )

    def test_noop_round_reuses_everything(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)
        result = evaluator.evaluate(noop_touch(applications, 3))
        stats = result.delta_stats
        assert stats["classified"][DELTA_UNCHANGED] == SAMPLE
        assert stats["reused"] == SAMPLE
        assert stats["recomputed"] == 0
        assert stats["changed"] == []

    def test_delta_result_never_aliases_prior_reports(self, applications):
        # The M4* pass of a new round appends findings through report.add;
        # reused reports must be fresh objects so the prior result's
        # canonical form survives any number of subsequent rounds.
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        first = evaluator.evaluate(applications)
        before = canonical_evaluation(first)
        evaluator.evaluate(values_tweak(applications, 1))
        evaluator.evaluate(remove_chart(applications, 2))
        assert_identical(before, canonical_evaluation(first), "prior result mutated")

    def test_settings_change_reclassifies_and_matches_scratch(self, applications, tmp_path):
        # The store, written under the default settings, is the prior.
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))

        changed = AnalyzerSettings(seed=2026)
        evaluator = DeltaEvaluator(settings=changed, store=store_dir, retry_backoff=BACKOFF)
        plan = evaluator.plan(applications)
        assert plan.counts()[DELTA_RE_ANALYZE] == SAMPLE
        result = evaluator.evaluate(applications)
        assert result.delta_stats["recomputed"] == SAMPLE
        scratch = run_full_evaluation(applications=applications, settings=changed)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            "delta[settings] vs scratch",
        )


class TestClassification:
    def evaluator_with_prior(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)
        return evaluator

    def test_values_tweak_is_re_render_with_reason(self, applications):
        evaluator = self.evaluator_with_prior(applications)
        mutated = values_tweak(applications, 2)
        plan = evaluator.plan(mutated)
        delta = plan.charts[2]
        assert delta.classification == DELTA_RE_RENDER
        assert delta.reasons == ("values",)
        assert plan.counts()[DELTA_UNCHANGED] == SAMPLE - 1

    def test_template_edit_is_re_render_with_reason(self, applications):
        evaluator = self.evaluator_with_prior(applications)
        plan = evaluator.plan(template_edit(applications, 4))
        assert plan.charts[4].classification == DELTA_RE_RENDER
        assert plan.charts[4].reasons == ("templates",)

    def test_behavior_change_is_re_observe(self, applications):
        evaluator = self.evaluator_with_prior(applications)
        plan = evaluator.plan(behavior_change(applications, 5))
        assert plan.charts[5].classification == DELTA_RE_OBSERVE
        assert plan.charts[5].reasons == ("behaviors",)

    def test_added_and_removed_charts_are_named(self, applications):
        evaluator = self.evaluator_with_prior(applications)
        mutated = remove_chart(add_chart(applications, 0), 1)
        plan = evaluator.plan(mutated)
        assert plan.classification_of("Bitnami/delta-added-0") == DELTA_ADDED
        assert plan.removed == (uid(applications[1]),)

    def test_prior_failure_is_never_unchanged(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        poison = faults.FaultPlan(
            faults.FaultSpec(site=faults.OBSERVE, charts=(uid(applications[0]),), attempts=10)
        )
        first = evaluator.evaluate(applications, fault_plan=poison)
        assert [failure.unique_id for failure in first.failed] == [uid(applications[0])]
        plan = evaluator.plan(applications)
        assert plan.charts[0].classification == DELTA_RE_RENDER
        assert plan.charts[0].reasons == ("prior failure",)
        assert plan.counts()[DELTA_UNCHANGED] == SAMPLE - 1


# ---------------------------------------------------------------------------
# Chaos interaction: faults mid-delta must not leave stale results behind.
# ---------------------------------------------------------------------------


class TestDeltaChaos:
    def test_fault_mid_delta_quarantines_without_stale_reuse(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)
        mutated = values_tweak(applications, 3)
        victim = uid(mutated[3])
        plan = faults.FaultPlan(
            faults.FaultSpec(site=faults.OBSERVE, charts=(victim,), attempts=10)
        )
        result = evaluator.evaluate(mutated, fault_plan=plan)
        # The changed chart failed: it must appear quarantined, and its
        # stale prior report must not be served in its place.
        assert [failure.unique_id for failure in result.failed] == [victim]
        assert result.report_for(mutated[3].dataset, mutated[3].name) is None
        # Healthy charts are byte-identical to a scratch sweep under the
        # same fault plan (same analyzed set, same M4* pass).
        scratch = run_full_evaluation(
            applications=mutated, fault_plan=plan, retry_backoff=BACKOFF
        )
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            "faulted delta vs faulted scratch",
        )

    def test_recovery_round_equals_clean_scratch(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)
        mutated = values_tweak(applications, 3)
        plan = faults.FaultPlan(
            faults.FaultSpec(site=faults.RULES, charts=(uid(mutated[3]),), attempts=10)
        )
        faulted = evaluator.evaluate(mutated, fault_plan=plan)
        assert faulted.failed
        recovered = evaluator.evaluate(mutated)
        assert not recovered.failed
        scratch = run_full_evaluation(applications=mutated)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(recovered),
            "recovery round vs clean scratch",
        )

    def test_transient_fault_healed_by_retry_is_invisible(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)
        mutated = template_edit(applications, 2)
        plan = faults.FaultPlan(
            faults.FaultSpec(site=faults.OBSERVE, charts=(uid(mutated[2]),), attempts=1)
        )
        result = evaluator.evaluate(mutated, fault_plan=plan)
        assert not result.failed
        entry = result.report_for(mutated[2].dataset, mutated[2].name)
        assert entry is not None
        scratch = run_full_evaluation(applications=mutated)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            "healed delta vs scratch",
        )


# ---------------------------------------------------------------------------
# Hypothesis-driven change sequences: arbitrary edit chains, each round
# delta'd against the previous and compared to scratch.
# ---------------------------------------------------------------------------

operations = st.lists(
    st.tuples(st.sampled_from(sorted(CHANGE_CLASSES)), st.integers(0, SAMPLE - 1)),
    min_size=1,
    max_size=4,
)


class TestChangeSequences:
    @hyp_settings(max_examples=8, deadline=None)
    @given(ops=operations)
    def test_every_round_matches_scratch(self, ops):
        base = build_catalog()[:4]
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        current = list(base)
        evaluator.evaluate(current)
        for step, (op, index) in enumerate(ops):
            if op == "add":
                current = add_chart(current, step)
            else:
                current = CHANGE_CLASSES[op](current, index)
            result = evaluator.evaluate(current)
            assert not result.failed
            scratch = run_full_evaluation(applications=current)
            assert_identical(
                canonical_evaluation(scratch),
                canonical_evaluation(result),
                f"round {step + 1} ({op}) vs scratch",
            )


# ---------------------------------------------------------------------------
# The result-key contract: the in-memory prior is a result-key tier.  A
# chart is unchanged exactly when it was healthy in the previous round and
# its result_key held; a values key reorder holds it.
# ---------------------------------------------------------------------------

keyed_operations = st.lists(
    st.tuples(st.sampled_from(sorted(CHANGE_CLASSES)), st.integers(0, SAMPLE - 1), st.booleans()),
    min_size=1,
    max_size=4,
)


class TestResultKeyContract:
    @hyp_settings(max_examples=10, deadline=None)
    @given(ops=keyed_operations)
    def test_unchanged_exactly_when_healthy_and_result_key_held(self, ops):
        settings_fp = settings_fingerprint(AnalyzerSettings())
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        current = build_catalog()[:4]
        previous = evaluator.evaluate(current)
        keys = {uid(app): result_key(app, settings_fp) for app in current}
        for step, (op, index, poison) in enumerate(ops):
            if op == "add":
                current = add_chart(current, step)
            else:
                current = CHANGE_CLASSES[op](current, index)
            healthy = {uid(entry.application) for entry in previous.analyzed}
            plan = evaluator.plan(current)
            for app, delta in zip(current, plan.charts):
                held = keys.get(uid(app)) == result_key(app, settings_fp)
                assert (delta.classification == DELTA_UNCHANGED) == (
                    uid(app) in healthy and held
                ), f"round {step + 1} ({op}): {delta}"
            fault_plan = None
            if poison:
                victim = uid(current[index % len(current)])
                fault_plan = faults.FaultPlan(
                    faults.FaultSpec(site=faults.OBSERVE, charts=(victim,), attempts=10)
                )
            previous = evaluator.evaluate(current, fault_plan=fault_plan)
            assert previous.delta_stats["classified"] == plan.counts()
            keys = {uid(app): result_key(app, settings_fp) for app in current}


# ---------------------------------------------------------------------------
# The incremental M4* pass: in every round, each report's M4* findings
# (order included) equal the from-scratch pass over the same analyzed set.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def colliding_base():
    """Two charts of the catalogue's global label collision group, two outside it."""
    catalog = build_catalog()
    inside = [app for app in catalog if app.plan.global_collision]
    outside = [app for app in catalog if not app.plan.global_collision]
    return (outside[0], inside[0], inside[1], outside[1])


def relabel(apps, index, joins):
    """Rebuild one chart (same key) inside or outside the global collision group."""
    app = apps[index % len(apps)]
    rebuilt = build_application(
        app.name,
        app.dataset,
        InjectionPlan(m1=1, global_collision=joins),
        dataset=app.dataset,
        use_case=app.use_case,
    )
    mutated = list(apps)
    mutated[index % len(apps)] = rebuilt
    return mutated


def m4_findings(result) -> dict[str, list[dict]]:
    return {
        uid(entry.application): [
            finding.to_dict()
            for finding in entry.report.findings
            if finding.misconfig_class is MisconfigClass.M4_GLOBAL
        ]
        for entry in result.analyzed
    }


def scratch_m4_findings(result) -> dict[str, list[dict]]:
    entries = {uid(entry.application): entry for entry in result.analyzed}
    expected: dict[str, list[dict]] = {key: [] for key in entries}
    inventories = [ApplicationInventory(key, entry.surface) for key, entry in entries.items()]
    for finding in global_collision_findings(inventories):
        key = finding.application
        finding.application = entries[key].application.name
        expected[key].append(finding.to_dict())
    return expected


m4_operations = st.lists(
    st.tuples(
        st.sampled_from(
            sorted(CHANGE_CLASSES) + ["join", "leave", "quarantine", "readd", "swap"]
        ),
        st.integers(0, SAMPLE - 1),
    ),
    min_size=1,
    max_size=5,
)


class TestIncrementalClusterWide:
    @hyp_settings(max_examples=25, deadline=None)
    @given(ops=m4_operations)
    def test_every_round_matches_the_scratch_pass(self, ops):
        current = list(colliding_base())
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(current)
        parked = []
        for step, (op, index) in enumerate(ops):
            plan = None
            if op in ("join", "leave"):
                current = relabel(current, index, joins=op == "join")
            elif op == "quarantine":
                # A fault only fires in a chart that runs: edit it too.
                current = values_tweak(current, index, salt=f"quarantine-{step}")
                victim = uid(current[index % len(current)])
                plan = faults.FaultPlan(
                    faults.FaultSpec(site=faults.OBSERVE, charts=(victim,), attempts=10)
                )
            elif op == "remove":
                if len(current) > 1:
                    parked.append(current.pop(index % len(current)))
            elif op == "readd":
                if parked:
                    current.insert(index % (len(current) + 1), parked.pop())
            elif op == "swap":
                if len(current) > 1:
                    at = index % (len(current) - 1)
                    current[at], current[at + 1] = current[at + 1], current[at]
            elif op == "add":
                current = add_chart(current, step)
            else:
                current = CHANGE_CLASSES[op](current, index)
            result = evaluator.evaluate(current, fault_plan=plan)
            label = f"round {step + 1} ({op})"
            assert m4_findings(result) == scratch_m4_findings(result), label
            scratch = run_full_evaluation(
                applications=current, fault_plan=plan, retry_backoff=BACKOFF
            )
            assert_identical(canonical_evaluation(scratch), canonical_evaluation(result), label)


# ---------------------------------------------------------------------------
# Durable prior state: classification from the store's epoch-tagged journal.
# ---------------------------------------------------------------------------


class TestDurableDelta:
    def test_store_delta_reuses_and_matches_scratch(self, applications, tmp_path):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))

        evaluator = DeltaEvaluator(store=store_dir, retry_backoff=BACKOFF)
        mutated = values_tweak(applications, 3)
        plan = evaluator.plan(mutated)
        assert plan.charts[3].classification == DELTA_RE_RENDER
        assert plan.counts()[DELTA_UNCHANGED] == SAMPLE - 1

        result = evaluator.evaluate(mutated)
        stats = result.delta_stats
        assert stats["mode"] == "store"
        assert stats["reused"] == SAMPLE - 1
        assert stats["recomputed"] == 1
        assert stats["epoch"] == stats["prior_epoch"] + 1
        scratch = run_full_evaluation(applications=mutated)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            "store delta vs scratch",
        )

    def test_store_delta_pooled_matches_scratch(self, applications, tmp_path):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        evaluator = DeltaEvaluator(store=store_dir, retry_backoff=BACKOFF)
        mutated = template_edit(applications, 1)
        result = evaluator.evaluate(mutated, workers=2)
        assert not result.failed
        scratch = run_full_evaluation(applications=mutated)
        assert_identical(
            canonical_evaluation(scratch),
            canonical_evaluation(result),
            "pooled store delta vs scratch",
        )

    def test_journal_records_without_fingerprints_classify_added(
        self, applications, tmp_path
    ):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        # Strip the fingerprint payloads, leaving records as
        # ``SweepJournal.record`` writes them without fingerprints; reseal
        # so the records stay valid.
        for epoch, chart, text in store_db.query(store_dir, "SELECT epoch, chart, record FROM journal"):
            record = json.loads(text)
            record.pop("fp", None)
            text = json.dumps(record, sort_keys=True, separators=(",", ":"))
            store_db.execute(
                store_dir,
                "UPDATE journal SET record = ?, seal = ? WHERE epoch = ? AND chart = ?",
                (text, _seal(epoch, text), epoch, chart),
            )

        evaluator = DeltaEvaluator(store=store_dir, retry_backoff=BACKOFF)
        plan = evaluator.plan(applications)
        assert plan.counts()[DELTA_ADDED] == SAMPLE
        assert plan.removed == ()
        # Only the label moved: the store still reuses every entry.
        result = evaluator.evaluate(applications)
        assert result.delta_stats["reused"] == SAMPLE
        assert result.delta_stats["recomputed"] == 0
        assert_identical(
            canonical_evaluation(run_full_evaluation(applications=applications)),
            canonical_evaluation(result),
            "fingerprint-less journal vs scratch",
        )


# ---------------------------------------------------------------------------
# Satellite: SweepJournal superseded-entry semantics under repeated
# resume+delta cycles.
# ---------------------------------------------------------------------------


class TestJournalSupersededEntries:
    def test_repeated_cycles_keep_one_live_record_per_chart(
        self, applications, tmp_path
    ):
        store_dir = tmp_path / "store"
        seed = run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        assert seed.store_stats["journal_epoch"] == 1

        evaluator = DeltaEvaluator(store=store_dir, retry_backoff=BACKOFF)
        current = list(applications)
        for cycle in range(1, 4):
            current = values_tweak(current, cycle, salt=f"cycle-{cycle}")
            result = evaluator.evaluate(current, resume=True)
            assert not result.failed
            state = read_prior_state(store_dir)
            # Exactly one live record per chart key, every one healthy --
            # earlier generations were superseded, not accumulated.
            assert len(state.records) == len(current)
            assert set(state.records) == {uid(app) for app in current}
            assert set(state.completed()) == set(state.records)
            # The identity moved with the chart content, so each cycle
            # rotates the journal and advances the epoch.
            assert state.epoch == 1 + cycle
        # The superseded generation is kept; older ones are dropped.
        kept = store_db.query(store_dir, "SELECT DISTINCT epoch FROM journal ORDER BY epoch")
        assert kept == [(state.epoch - 1,), (state.epoch,)]

    def test_pure_resume_continues_the_epoch(self, applications, tmp_path):
        store_dir = tmp_path / "store"
        run_full_evaluation(
            applications=applications[: SAMPLE // 2], store=ResultStore(store_dir)
        )
        resumed = run_full_evaluation(
            applications=applications[: SAMPLE // 2],
            store=ResultStore(store_dir),
            resume=True,
        )
        assert resumed.store_stats["journal_epoch"] == 1
        assert read_prior_state(store_dir).epoch == 1

    def test_superseded_records_reflect_the_latest_content(
        self, applications, tmp_path
    ):
        store_dir = tmp_path / "store"
        run_full_evaluation(applications=applications, store=ResultStore(store_dir))
        before = read_prior_state(store_dir)
        evaluator = DeltaEvaluator(store=store_dir, retry_backoff=BACKOFF)
        mutated = values_tweak(applications, 0)
        evaluator.evaluate(mutated)
        after = read_prior_state(store_dir)
        changed = uid(applications[0])
        assert after.records[changed]["fp"]["values"] != before.records[changed]["fp"]["values"]
        unchanged = uid(applications[1])
        assert after.records[unchanged]["fp"] == before.records[unchanged]["fp"]


# ---------------------------------------------------------------------------
# Satellite: result lookups follow ``analyzed`` -- same-length mutations
# must re-query fresh, removals must not leave orphaned keys.
# ---------------------------------------------------------------------------


class TestResultIndexStaleness:
    def test_same_length_mutation_reindexes(self, applications):
        result = run_full_evaluation(applications=applications[:3])
        removed = result.analyzed[0]
        replacement_source = run_full_evaluation(applications=[applications[5]])
        # Remove one entry and insert another: the length is unchanged,
        # which the pre-fix length-only check treated as "still fresh".
        assert result.report_for(*removed.key) is not None
        result.analyzed[0] = replacement_source.analyzed[0]
        assert result.report_for(*removed.key) is None
        assert result.report_for(*replacement_source.analyzed[0].key) is not None

    def test_removal_leaves_no_orphaned_keys(self, applications):
        result = run_full_evaluation(applications=applications[:3])
        gone = result.analyzed[1]
        dataset_before = [entry.key for entry in result.by_dataset(gone.application.dataset)]
        assert gone.key in dataset_before
        del result.analyzed[1]
        assert result.report_for(*gone.key) is None
        assert gone.key not in [
            entry.key for entry in result.by_dataset(gone.application.dataset)
        ]


# ---------------------------------------------------------------------------
# Satellite: classifier-fingerprint orthogonality -- each input flips
# exactly its own fingerprint and no others.
# ---------------------------------------------------------------------------

BASE_SETTINGS_FP = settings_fingerprint(AnalyzerSettings())

FINGERPRINT_MUTATIONS = {
    "values": lambda app: (values_tweak([app], 0)[0], BASE_SETTINGS_FP),
    "templates": lambda app: (template_edit([app], 0)[0], BASE_SETTINGS_FP),
    "behaviors": lambda app: (behavior_change([app], 0)[0], BASE_SETTINGS_FP),
    "settings": lambda app: (app, settings_fingerprint(AnalyzerSettings(seed=2026))),
}


class TestFingerprintSensitivity:
    @pytest.mark.parametrize("axis", sorted(FINGERPRINT_MUTATIONS))
    def test_each_input_flips_exactly_its_own_fingerprint(self, applications, axis):
        app = applications[0]
        base = classifier_fingerprints(app, BASE_SETTINGS_FP)
        mutated_app, mutated_fp = FINGERPRINT_MUTATIONS[axis](app)
        after = classifier_fingerprints(mutated_app, mutated_fp)
        for key in ("values", "templates", "behaviors", "settings"):
            if key == axis:
                assert after[key] != base[key], f"{axis} must flip {key}"
            else:
                assert after[key] == base[key], f"{axis} must not flip {key}"
        # The aggregate chart fingerprint moves exactly with render inputs.
        assert (after["chart"] != base["chart"]) == (axis in ("values", "templates"))

    def test_noop_rebuild_flips_nothing(self, applications):
        app = applications[0]
        base = classifier_fingerprints(app, BASE_SETTINGS_FP)
        rebuilt = noop_touch([app], 0)[0]
        assert classifier_fingerprints(rebuilt, BASE_SETTINGS_FP) == base


# ---------------------------------------------------------------------------
# Memo reuse across delta rounds: the observation memo keeps reverted charts
# warm.
# ---------------------------------------------------------------------------


class TestMemoAcrossRounds:
    def test_reverted_chart_hits_the_observation_memo(self, applications):
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        first = evaluator.evaluate(applications)
        baseline = canonical_evaluation(first)
        evaluator.evaluate(values_tweak(applications, 2))
        hits_before = evaluator.analyzer.session.memo_stats()["hits"]
        reverted = evaluator.evaluate(noop_touch(applications, 2))
        assert evaluator.analyzer.session.memo_stats()["hits"] > hits_before
        assert_identical(baseline, canonical_evaluation(reverted), "reverted round")


# ---------------------------------------------------------------------------
# Full-catalogue randomized differential (acceptance criterion).
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestFullCatalogueDelta:
    def test_randomized_change_set_serial_and_pooled(self):
        applications = build_catalog()
        rng = random.Random(9025)
        evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        evaluator.evaluate(applications)

        mutated = list(applications)
        mutators = [values_tweak, template_edit, behavior_change]
        for edit in range(6):
            mutated = mutators[edit % len(mutators)](mutated, rng.randrange(len(mutated)))
        mutated = add_chart(mutated, 0)
        del mutated[rng.randrange(len(mutated) - 1)]

        scratch = run_full_evaluation(applications=mutated)
        canonical_scratch = canonical_evaluation(scratch)

        serial = evaluator.evaluate(mutated)
        assert not serial.failed
        assert serial.delta_stats["recomputed"] < len(mutated)
        assert_identical(
            canonical_scratch, canonical_evaluation(serial), "full-catalogue serial delta"
        )

        pooled_evaluator = DeltaEvaluator(retry_backoff=BACKOFF)
        pooled_evaluator.evaluate(applications, workers=4)
        pooled = pooled_evaluator.evaluate(mutated, workers=4)
        assert not pooled.failed
        assert_identical(
            canonical_scratch, canonical_evaluation(pooled), "full-catalogue pooled delta"
        )
