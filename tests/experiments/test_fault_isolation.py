"""Chaos differential suite: the fault-isolation invariant, site by site.

The invariant under test: **under any injected fault plan, every healthy
chart's report is byte-identical to a fault-free run**, and a plan that
permanently poisons k charts yields exactly k :class:`AnalysisFailure`
records -- the sweep never aborts, never reorders, and never lets a broken
chart's failure leak into a neighbour's verdict.

Every fault site of :mod:`repro.faults` gets a scenario, including the two
that only exist on the parallel path: a worker killed mid-task (a genuine
``BrokenProcessPool`` with ``workers=2``) and a hung chart reaped by the
per-chart watchdog.
"""

import pickle

import pytest

from repro import faults
from repro.datasets import build_catalog
from repro.experiments import run_full_evaluation
from repro.experiments.evaluation import (
    FAILURE_STAGE_TIMEOUT,
    FAILURE_STAGE_WORKER,
)
from tests.support.diffing import assert_identical, canonical_evaluation

#: Serial-path fault sites and the stage each failure must be attributed to.
SERIAL_SITES = [
    (faults.TEMPLATE_PARSE, "render"),
    (faults.STRUCTURED_ASSEMBLE, "render"),
    (faults.OBSERVE, "observe"),
    (faults.RULES, "rules"),
]

SAMPLE = 8
MAX_ATTEMPTS = 3
#: Near-zero backoff keeps the suite fast without changing any semantics.
BACKOFF = 0.001


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


def healthy_subset(baseline, skipped: set[int]):
    return [report for index, report in enumerate(baseline) if index not in skipped]


def poison_plan(site: str, charts: tuple[str, ...], kind: str = "error", **kw):
    """A plan that fails ``charts`` at ``site`` on every retry (poison)."""
    return faults.FaultPlan(
        faults.FaultSpec(site, charts=charts, attempts=99, kind=kind, **kw)
    )


def clear_render_caches() -> None:
    """Cold-start the render pipeline: compile-cache hits bypass the
    ``template.parse`` / ``structured.assemble`` sites, so scenarios that
    target them must start from empty caches."""
    from repro.helm.render_cache import shared_render_cache
    from repro.helm.structured import clear_skeleton_parse_memo
    from repro.helm.template import clear_template_cache

    clear_template_cache()
    clear_skeleton_parse_memo()
    shared_render_cache().clear()


class TestSerialFaultIsolation:
    @pytest.mark.parametrize("site,stage", SERIAL_SITES, ids=[s for s, _ in SERIAL_SITES])
    def test_one_poison_chart_quarantined_rest_identical(
        self, applications, baseline, site, stage
    ):
        # Victim 0: catalogue charts share template sources, so any later
        # chart would hit the compile cache and bypass ``template.parse``.
        victim = 0
        clear_render_caches()
        plan = poison_plan(site, (chart_key(applications, victim),))
        result = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert len(result.failed) == 1
        failure = result.failed[0]
        assert failure.unique_id == chart_key(applications, victim)
        assert failure.stage == stage
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == MAX_ATTEMPTS
        assert failure.quarantined
        assert site in failure.message
        assert "InjectedFault" in failure.traceback
        assert_identical(
            healthy_subset(baseline, {victim}),
            canonical_evaluation(result),
            f"healthy charts under {site} fault",
        )

    def test_k_poison_charts_yield_exactly_k_failures(self, applications, baseline):
        victims = {1, 4, 6}
        plan = poison_plan(
            faults.RULES, tuple(chart_key(applications, index) for index in sorted(victims))
        )
        result = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert len(result.failed) == len(victims)
        assert [failure.unique_id for failure in result.failed] == [
            chart_key(applications, index) for index in sorted(victims)
        ]
        assert_identical(
            healthy_subset(baseline, victims),
            canonical_evaluation(result),
            "healthy charts under 3 poison charts",
        )

    def test_transient_fault_heals_on_retry_and_output_is_identical(
        self, applications, baseline
    ):
        victim = 2
        plan = faults.FaultPlan(
            faults.FaultSpec(
                faults.OBSERVE, charts=(chart_key(applications, victim),), attempts=2
            )
        )
        result = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert not result.failed
        assert result.analyzed[victim].attempts == 3
        assert all(
            entry.attempts == 1
            for index, entry in enumerate(result.analyzed)
            if index != victim
        )
        assert_identical(
            baseline, canonical_evaluation(result), "healed run vs fault-free"
        )

    def test_render_cache_corruption_detected_and_recomputed(
        self, applications, baseline
    ):
        from repro.helm.render_cache import shared_render_cache

        cache = shared_render_cache()
        corruptions_before = cache.corruptions
        plan = poison_plan(
            faults.RENDER_CACHE_READ,
            tuple(chart_key(applications, index) for index in range(SAMPLE)),
            kind="corrupt",
        )
        result = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        # Corruption is *detected*, never served: zero failures, reports
        # byte-identical, and the counter proves the detection path ran.
        assert not result.failed
        assert cache.corruptions > corruptions_before
        assert_identical(
            baseline, canonical_evaluation(result), "corrupted-cache run"
        )

    def test_render_cache_read_error_attributed_to_render(
        self, applications, baseline
    ):
        victim = 0
        plan = poison_plan(
            faults.RENDER_CACHE_READ, (chart_key(applications, victim),)
        )
        result = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        # The shared cache may be cold for this chart (a miss bypasses the
        # site); when warm, the failure must be attributed to render.
        for failure in result.failed:
            assert failure.stage == "render"
        skipped = {victim} if result.failed else set()
        assert_identical(
            healthy_subset(baseline, skipped),
            canonical_evaluation(result),
            "healthy charts under cache-read fault",
        )


@pytest.mark.slow
class TestParallelFaultIsolation:
    def test_worker_kill_breaks_pool_then_quarantines(self, applications, baseline):
        victim = 2
        plan = poison_plan(
            faults.WORKER_KILL, (chart_key(applications, victim),), kind="kill"
        )
        result = run_full_evaluation(
            applications=applications,
            workers=2,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert len(result.failed) == 1
        failure = result.failed[0]
        assert failure.unique_id == chart_key(applications, victim)
        assert failure.stage == FAILURE_STAGE_WORKER
        assert failure.error_type == "BrokenProcessPool"
        assert failure.attempts == MAX_ATTEMPTS
        assert_identical(
            healthy_subset(baseline, {victim}),
            canonical_evaluation(result),
            "healthy charts after repeated pool breakage",
        )

    def test_worker_kill_heals_when_fault_expires(self, applications, baseline):
        victim = 2
        plan = faults.FaultPlan(
            faults.FaultSpec(
                faults.WORKER_KILL,
                charts=(chart_key(applications, victim),),
                attempts=1,
                kind="kill",
            )
        )
        result = run_full_evaluation(
            applications=applications,
            workers=2,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert not result.failed
        assert result.analyzed[victim].attempts == 2
        assert_identical(
            baseline, canonical_evaluation(result), "pool healed run vs fault-free"
        )

    def test_hung_chart_reaped_by_watchdog(self, applications, baseline):
        victim = 1
        plan = poison_plan(
            faults.OBSERVE,
            (chart_key(applications, victim),),
            kind="hang",
            hang_s=30.0,
        )
        result = run_full_evaluation(
            applications=applications,
            workers=2,
            fault_plan=plan,
            max_attempts=2,
            retry_backoff=BACKOFF,
            chart_timeout=1.0,
        )
        assert len(result.failed) == 1
        failure = result.failed[0]
        assert failure.unique_id == chart_key(applications, victim)
        assert failure.stage == FAILURE_STAGE_TIMEOUT
        assert "watchdog" in failure.message
        assert_identical(
            healthy_subset(baseline, {victim}),
            canonical_evaluation(result),
            "healthy charts after watchdog reaping",
        )

    def test_parallel_error_faults_match_serial_fault_run(self, applications):
        victims = (chart_key(applications, 0), chart_key(applications, 5))
        plan = poison_plan(faults.RULES, victims)
        serial = run_full_evaluation(
            applications=applications,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        parallel = run_full_evaluation(
            applications=applications,
            workers=2,
            fault_plan=plan,
            max_attempts=MAX_ATTEMPTS,
            retry_backoff=BACKOFF,
        )
        assert_identical(
            canonical_evaluation(serial),
            canonical_evaluation(parallel),
            "parallel vs serial under identical fault plan",
        )
        assert [failure.to_dict() for failure in serial.failed] == [
            failure.to_dict() for failure in parallel.failed
        ]


class TestFaultPlan:
    def test_plan_round_trips_through_pickle(self):
        # Spawned pool workers receive the plan pickled: the copy must fire
        # exactly where the original does.
        plan = faults.FaultPlan(
            faults.FaultSpec(faults.RULES, charts=("org/victim",), attempts=2),
            faults.FaultSpec(faults.STORE_READ, attempts=99, kind="corrupt", corruption="bitflip"),
        )
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.specs == plan.specs
        with faults.plan_armed(copy):
            with faults.fault_scope("org/victim", 2):
                with pytest.raises(faults.InjectedFault):
                    faults.fault_point(faults.RULES)
                assert faults.corruption_mode(faults.STORE_READ) == "bitflip"
                assert faults.corruption_mode(faults.RENDER_CACHE_READ) is None
            with faults.fault_scope("org/victim", 3):
                faults.fault_point(faults.RULES)
            with faults.fault_scope("org/bystander", 1):
                faults.fault_point(faults.RULES)
