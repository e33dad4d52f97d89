"""The full evaluation pipeline (Section 4.2): analyze the whole catalogue.

Per application: render the chart (dict-natively, through the shared render
cache), derive the double runtime snapshot install-free via the pooled
:class:`~repro.cluster.AnalysisSession`, evaluate every rule.  Once all
applications are analyzed, run the cluster-wide pass for global label
collisions (M4*).  The result feeds every table and figure of Section 4.3.

Fault isolation
---------------

One malformed chart must not abort a 290-chart sweep.  Every per-chart
exception -- in render, observation or rule evaluation -- becomes a
structured :class:`AnalysisFailure` record on ``EvaluationResult.failed``
instead of propagating, after up to ``max_attempts`` retries with capped
exponential backoff; a chart that still fails is *quarantined* and the
sweep carries on.  Every healthy chart's report is byte-identical to a
fault-free run (the chaos differential suite in
``tests/experiments/test_fault_isolation.py`` proves it under injected
faults at every site).

Full, durable and delta sweeps share one engine, :func:`_sweep`: it takes
the entries already reused (store loads, or a delta round's unchanged
charts), computes the rest serially or on the process pool and merges in
catalogue order.  Only this module knows how charts are executed, retried
and merged.  The M4* pass runs on the merged result: from scratch
(:func:`apply_cluster_wide_pass`) for full and durable sweeps,
incrementally for a watch's delta rounds.

The parallel process-pool sweep is additionally *self-healing*: it survives
``BrokenProcessPool`` (a worker killed mid-task) by respawning the pool, and
it enforces a per-chart wall-clock watchdog (``chart_timeout``) so a hung
chart cannot stall the sweep.  Crash attribution is exact: charts that were
in flight when the pool broke are re-run one at a time on a fresh pool, so a
repeat crash is unambiguously the fault of the chart that was alone in
flight -- innocent bystanders are never charged an attempt, which keeps
retry/quarantine decisions (and therefore the whole result) deterministic.
Result ordering is catalogue order throughout, failures or not.

Durability and resume
---------------------

``run_full_evaluation(store=...)`` makes the sweep *durable*: every
completed chart's report and label surface are published to a
content-addressed :class:`~repro.store.ResultStore`, keyed on
:func:`result_key` (chart fingerprint + behaviours + analyzer settings),
and a sealed :class:`~repro.store.SweepJournal` record of the chart's
completion commits in the same transaction.  Computed charts publish in
time-bounded groups, one transaction each
(:data:`~repro.store.GROUP_COMMIT_S`), not at the end of the sweep: a
killed process loses only the group it had not yet committed, and a sweep
that returns or is interrupted publishes its open group on the way out.
Every durable sweep consults the store
first -- content addressing makes a warm entry valid in any sweep with
the same inputs -- so an interrupted sweep resumes by running again, and
the journal continues its epoch while the sweep identity holds.
Persisted entries hold the pre-M4* report: the cluster-wide pass re-runs
over loaded and fresh label surfaces alike, so store-on, store-off and
crash-then-resume sweeps produce byte-identical results (the durability
differential suite in ``tests/experiments/test_store_durability.py``
proves it, torn stores and injected corruption included).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .. import faults, store as store_module
from ..store import KIND_RESULT, ResultStore, SweepJournal, store_key
from ..core import (
    AnalysisReport,
    AnalysisStageError,
    AnalyzerSettings,
    ApplicationInventory,
    EvaluationSummary,
    MisconfigurationAnalyzer,
    STAGE_RENDER,
    global_collision_findings,
)
from ..datasets import BuiltApplication, build_catalog
from ..helm import render_chart
from ..helm.values import fingerprint_values
from ..k8s import Inventory, LabelSurface

#: Use-case grouping used by the Section 4.3.1 statistics.
USE_CASE_OF_DATASET = {
    "Banzai Cloud": "sharing",
    "Bitnami": "sharing",
    "CNCF": "production",
    "EEA": "internal",
    "Prometheus C.": "production",
    "Wikimedia": "internal",
}

#: Failure stages beyond the analyzer's render/observe/rules: the worker
#: process died (crash or kill), the per-chart watchdog fired, or a watched
#: chart directory could not be loaded.
FAILURE_STAGE_WORKER = "worker"
FAILURE_STAGE_TIMEOUT = "timeout"
FAILURE_STAGE_LOAD = "load"

#: Watchdog poll interval and the ceiling on retry backoff sleeps.
_POLL_S = 0.02
_BACKOFF_CAP_S = 1.0


@dataclass
class AnalysisFailure:
    """One chart the sweep could not analyze, with full attribution.

    ``stage`` is one of the analyzer's pipeline stages (``render`` /
    ``observe`` / ``rules``), or ``worker`` (the worker process died),
    ``timeout`` (the per-chart watchdog fired) or ``load`` (a watched
    chart directory could not be read or parsed; ``name`` is the
    directory name).  ``attempts`` counts how many times the chart was
    tried before being quarantined.
    """

    dataset: str
    name: str
    stage: str
    error_type: str
    message: str
    traceback: str
    attempts: int = 1
    quarantined: bool = True

    @property
    def unique_id(self) -> str:
        """The ``dataset/name`` key used by fault plans and the M4* pass."""
        return f"{self.dataset}/{self.name}"

    def to_dict(self) -> dict:
        """A JSON-ready form for reports and operator tooling."""
        return {
            "dataset": self.dataset,
            "name": self.name,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
        }


@dataclass
class AnalyzedApplication:
    """One application together with its analysis artefacts.

    ``surface`` is the chart's :class:`~repro.k8s.LabelSurface`, the one
    input the cluster-wide M4* pass reads; computed, pool-returned and
    store-loaded entries all carry it, and none keeps the inventory.
    """

    application: BuiltApplication
    report: AnalysisReport
    surface: LabelSurface
    #: How many attempts the analysis took (1 = first try; >1 means a
    #: transient failure was healed by retry).
    attempts: int = 1

    @property
    def key(self) -> tuple[str, str]:
        """The ``(dataset, name)`` identity of the analyzed application."""
        return (self.application.dataset, self.application.name)


@dataclass
class EvaluationResult:
    """The outcome of analyzing the full catalogue.

    ``analyzed`` holds the healthy applications in catalogue order;
    ``failed`` holds one :class:`AnalysisFailure` per chart the sweep gave
    up on.  Every downstream consumer -- ``summary``, the figures, Table 3,
    the report formatters -- iterates ``analyzed`` only, so they degrade
    gracefully: a failed chart is simply absent, never a crash.
    """

    analyzed: list[AnalyzedApplication] = field(default_factory=list)
    failed: list[AnalysisFailure] = field(default_factory=list)
    #: Durable-sweep accounting (``None`` when the sweep ran without a
    #: store): loaded/computed/failed counts, the store's own counters,
    #: any journal rotation -- the CLI's degradation hints key on this --
    #: and the journal generation the sweep found (``journal_prior``, a
    #: :class:`~repro.store.PriorState` the CLI's delta line classifies against).
    #: Excluded from equality: where results came from must never make two
    #: identical evaluations compare different.
    store_stats: dict | None = field(default=None, init=False, repr=False, compare=False)
    #: Delta-sweep accounting (``None`` for from-scratch sweeps): the
    #: per-class chart counts and reuse/recompute tallies a
    #: :class:`repro.experiments.delta.DeltaEvaluator` round records.
    #: Excluded from equality for the same reason as ``store_stats``.
    delta_stats: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def summary(self) -> EvaluationSummary:
        """The aggregate finding counts over every *analyzed* application."""
        summary = EvaluationSummary()
        for entry in self.analyzed:
            summary.add(entry.report)
        return summary

    def applications(self) -> list[BuiltApplication]:
        """The analyzed applications, in catalogue order."""
        return [entry.application for entry in self.analyzed]

    def report_for(self, dataset: str, name: str) -> AnalysisReport | None:
        """The report of one application (``None`` if absent or failed)."""
        for entry in self.analyzed:
            if entry.key == (dataset, name):
                return entry.report
        return None

    def by_dataset(self, dataset: str) -> list[AnalyzedApplication]:
        """Analyzed applications of one dataset, in catalogue order."""
        return [entry for entry in self.analyzed if entry.application.dataset == dataset]

    def by_use_case(self, use_case: str) -> list[AnalyzedApplication]:
        """Analyzed applications of one use case, in catalogue order."""
        return [
            entry
            for entry in self.analyzed
            if USE_CASE_OF_DATASET.get(entry.application.dataset) == use_case
        ]


def _analyze_application(
    app: BuiltApplication, analyzer: MisconfigurationAnalyzer, stage_errors: bool = False
) -> AnalyzedApplication:
    # One render serves both the analysis and the inventory, and it goes
    # through the shared render cache: re-sweeping the same catalogue is a
    # shared-reference hit per chart.  The rules read the inventory; the
    # entry keeps only its label surface for the cluster-wide pass.
    def _render() -> tuple:
        rendered = render_chart(app.chart, fingerprint=app.fingerprint())
        return rendered, Inventory(rendered.objects)

    rendered, inventory = MisconfigurationAnalyzer._run_stage(
        STAGE_RENDER, stage_errors, _render
    )
    report = analyzer.analyze_chart(
        app.chart,
        behaviors=app.behaviors,
        dataset=app.dataset,
        rendered=rendered,
        inventory=inventory,
        stage_errors=stage_errors,
    )
    return AnalyzedApplication(
        application=app, report=report, surface=inventory.label_surface()
    )


def _failure_payload(exc: BaseException) -> tuple[str, str, str, str]:
    """(stage, error type, message, traceback) of a per-chart exception."""
    tb = "".join(traceback_module.format_exception(type(exc), exc, exc.__traceback__))
    if isinstance(exc, AnalysisStageError):
        original = exc.original
        return (exc.stage, type(original).__name__, str(original), tb)
    return (FAILURE_STAGE_WORKER, type(exc).__name__, str(exc), tb)


def _failure_from(
    app: BuiltApplication, payload: tuple[str, str, str, str], attempts: int
) -> AnalysisFailure:
    stage, error_type, message, tb = payload
    return AnalysisFailure(
        dataset=app.dataset,
        name=app.name,
        stage=stage,
        error_type=error_type,
        message=message,
        traceback=tb,
        attempts=attempts,
        quarantined=True,
    )


def _backoff_delay(attempt: int, retry_backoff: float) -> float:
    """Capped exponential backoff before retrying attempt ``attempt + 1``."""
    return min(retry_backoff * (2 ** (attempt - 1)), _BACKOFF_CAP_S)


def _run_isolated(
    app: BuiltApplication,
    analyzer: MisconfigurationAnalyzer,
    max_attempts: int,
    retry_backoff: float,
) -> AnalyzedApplication | AnalysisFailure:
    """Analyze one chart with in-process isolation: retry, then quarantine."""
    key = f"{app.dataset}/{app.name}"
    for attempt in range(1, max_attempts + 1):
        with faults.fault_scope(key, attempt):
            try:
                analyzed = _analyze_application(app, analyzer, stage_errors=True)
                analyzed.attempts = attempt
                return analyzed
            except Exception as exc:
                if attempt >= max_attempts:
                    return _failure_from(app, _failure_payload(exc), attempt)
        time.sleep(_backoff_delay(attempt, retry_backoff))
    raise AssertionError("unreachable: max_attempts >= 1")  # pragma: no cover


def settings_fingerprint(settings: AnalyzerSettings) -> str:
    """Canonical JSON of the analyzer settings, every field included.

    Where a store lives is not a setting, so moving a store directory keeps
    every entry addressable.
    """
    return json.dumps(asdict(settings), sort_keys=True, default=str)


def result_key(app: BuiltApplication, settings_fp: str) -> str:
    """The content key of one chart's evaluation result.

    Covers everything the (pre-M4*) report and label surface are a function
    of: the catalogue identity, the chart content fingerprint, the registered
    behaviours, and the analyzer settings (via :func:`settings_fingerprint`).
    """
    return store_key(
        KIND_RESULT,
        app.dataset,
        app.name,
        app.fingerprint(),
        app.behaviors.fingerprint(),
        settings_fp,
    )


def key_fingerprints(app: BuiltApplication, settings_fp: str) -> dict[str, str]:
    """The ``chart``, ``behaviors`` and ``settings`` fingerprints of one chart.

    With the chart's key, they are what :func:`result_key` covers: the
    delta evaluator calls a healthy chart unchanged exactly when these hold.
    ``chart`` is the application's cached :meth:`~repro.helm.Chart.fingerprint`.
    """
    return {
        "chart": app.fingerprint(),
        "behaviors": app.behaviors.fingerprint(),
        "settings": hashlib.blake2b(settings_fp.encode("utf-8"), digest_size=16).hexdigest(),
    }


def classifier_fingerprints(app: BuiltApplication, settings_fp: str) -> dict[str, str]:
    """The delta classifier's per-input fingerprints for one chart.

    :func:`key_fingerprints` plus ``values`` (the chart's key-sorted values
    tree) and ``templates`` (the template files by name and source), which
    only name the reason a chart whose ``chart`` fingerprint moved is
    re-rendered.  Mutating one input flips its own fingerprint and no other
    (``chart`` moves with every render input); the fingerprint-sensitivity
    suite in ``tests/experiments/test_delta_evaluation.py`` pins it.
    Journal records carry all five.
    """
    chart = app.chart
    return {
        **key_fingerprints(app, settings_fp),
        "values": fingerprint_values(chart.values),
        "templates": fingerprint_values([(t.name, t.source) for t in chart.templates]),
    }


class _DurableSweep:
    """Store + journal bookkeeping threaded through one durable sweep.

    ``load()`` pulls verified completed results out of the store before the
    sweep runs and commits their journal records in one transaction at the
    end.  ``note(outcome)`` stages each fresh outcome as it completes -- a
    computed chart's result row and its sealed journal record, a
    quarantined chart's ``failed`` record -- into the open *group*, under
    the chart's fault scope so injected ``store.*`` faults replay
    deterministically.  One transaction publishes the whole group once a
    ``note`` finds its oldest chart has waited
    :data:`~repro.store.GROUP_COMMIT_S`, and ``finish()`` publishes the
    group still open, so a sweep that returns or is interrupted has
    published everything it computed.  A row and its record always share
    one transaction.  The group commit is the crash point: at most one
    group of results is held only in memory, and it is always published
    *before* the cluster-wide M4* pass, which re-runs over loaded and fresh
    label surfaces alike.  A failed group commit rolls the whole group back;
    each of its charts is then journaled alone, a computed one as
    ``computed-unstored``.  A result row holds ``{"report", "surface",
    "attempts"}``.  The engine guarantees unique chart keys, so each
    ``dataset/name`` maps to exactly one catalogue index.
    """

    def __init__(
        self,
        store: ResultStore,
        applications: list[BuiltApplication],
        settings: AnalyzerSettings,
    ) -> None:
        self.store = store
        self.applications = applications
        settings_fp = settings_fingerprint(settings)
        self.keys = [result_key(app, settings_fp) for app in applications]
        #: Per-chart classifier fingerprints, attached to every journal
        #: record so a later delta sweep can classify what moved.
        self.fingerprints = [classifier_fingerprints(app, settings_fp) for app in applications]
        identity_material = repr((tuple(self.keys), settings_fp))
        identity = hashlib.sha256(identity_material.encode("utf-8")).hexdigest()
        self.journal = SweepJournal(store, identity)
        self.loaded = 0
        self.computed = 0
        self.failures = 0
        self.unstored = 0
        self._by_id = {
            f"{app.dataset}/{app.name}": index for index, app in enumerate(applications)
        }
        self._lock = threading.Lock()
        #: The open group: each staged outcome with whether its row was staged.
        self._group: list[tuple[AnalyzedApplication | AnalysisFailure, bool]] = []
        #: When the group's oldest chart was staged (``time.monotonic``).
        self._opened = 0.0
        #: The journal generation found at the start, continued or rotated away.
        self.prior = self.journal.begin()

    def load(self) -> dict[int, AnalyzedApplication]:
        """Verified completed results already in the store, by catalogue index."""
        found: dict[int, AnalyzedApplication] = {}
        for index, app in enumerate(self.applications):
            uid = f"{app.dataset}/{app.name}"
            with faults.fault_scope(uid):
                payload = self.store.read(self.keys[index], kind=KIND_RESULT)
            if not isinstance(payload, dict):
                continue
            try:
                entry = AnalyzedApplication(
                    application=app,
                    report=payload["report"],
                    surface=payload["surface"],
                    attempts=int(payload.get("attempts", 1)),
                )
            except KeyError:
                continue
            found[index] = entry
            self.loaded += 1
            self.journal.stage(
                uid, "ok", self.keys[index], entry.attempts,
                source="store", fingerprints=self.fingerprints[index],
            )
        self.journal.commit()
        return found

    def note(self, outcome: AnalyzedApplication | AnalysisFailure) -> None:
        """Stage one fresh outcome into the open group; publish the group when due."""
        with self._lock:
            if isinstance(outcome, AnalysisFailure):
                self.failures += 1
                stored = False
            else:
                app = outcome.application
                uid = f"{app.dataset}/{app.name}"
                self.computed += 1
                with faults.fault_scope(uid):
                    stored = self.store.stage(
                        self.keys[self._by_id[uid]],
                        {
                            "report": outcome.report,
                            "surface": outcome.surface,
                            "attempts": outcome.attempts,
                        },
                        kind=KIND_RESULT,
                    )
                if not stored:
                    self.unstored += 1
            self.journal.stage(*self._record(outcome, stored))
            if not self._group:
                self._opened = time.monotonic()
            self._group.append((outcome, stored))
            if time.monotonic() - self._opened >= store_module.GROUP_COMMIT_S:
                self._publish()

    def _record(self, outcome: AnalyzedApplication | AnalysisFailure, stored: bool) -> tuple:
        """The journal record of one fresh outcome, as :meth:`SweepJournal.stage` arguments."""
        if isinstance(outcome, AnalysisFailure):
            index = self._by_id[outcome.unique_id]
            return (outcome.unique_id, "failed", "", outcome.attempts, "computed",
                    self.fingerprints[index])
        app = outcome.application
        index = self._by_id[f"{app.dataset}/{app.name}"]
        return (f"{app.dataset}/{app.name}", "ok", self.keys[index], outcome.attempts,
                "computed" if stored else "computed-unstored", self.fingerprints[index])

    def _publish(self) -> None:
        """Commit the open group; if that fails, journal each of its charts alone."""
        group, self._group = self._group, []
        if self.store.commit():
            return
        for outcome, stored in group:
            if stored:
                self.unstored += 1
            self.journal.record(*self._record(outcome, stored=False))

    def finish(self) -> dict:
        """Publish the open group, close the journal; return the sweep's durability accounting."""
        with self._lock:
            self._publish()
        self.journal.close()
        return {
            "root": str(self.store.root),
            "loaded": self.loaded,
            "computed": self.computed,
            "failed": self.failures,
            "unstored": self.unstored,
            "resumed": len(self.prior.records) if self.journal.epoch == self.prior.epoch else 0,
            "journal_rotated": self.journal.rotated_reason,
            "journal_dropped_lines": self.journal.dropped_lines,
            "journal_epoch": self.journal.epoch,
            "journal_prior": self.prior,
            "store": {**self.store.stats(), "journal_failures": self.journal.failures},
        }


#: Per-worker-process analyzer, so the pooled cluster/substrate of its
#: analysis session survives across every chart the worker handles instead
#: of being rebuilt per task.
_WORKER_ANALYZER: MisconfigurationAnalyzer | None = None


def _pool_worker_init(fault_plan: faults.FaultPlan | None) -> None:
    """Process-pool initializer: arm the shipped fault plan, enable ``kill``."""
    faults.mark_pool_worker()
    faults.arm(fault_plan)


def _analyze_application_in_subprocess(
    app: BuiltApplication, settings: AnalyzerSettings, key: str, attempt: int
) -> tuple:
    """Process-pool worker: rebuild the (default) analyzer from its settings.

    The application arrives with its cached content fingerprint, so workers
    key straight into their (fork-inherited) render cache without
    re-hashing -- and, when the cache is warm, without re-rendering.  The
    analyzer itself is cached per process (keyed on the settings), keeping
    one warm :class:`~repro.cluster.AnalysisSession` per worker.

    Returns ``("ok", analyzed)`` or a picklable ``("err", payload)`` instead
    of raising, so the parent's submit/collect loop can distinguish a chart
    failure from a dead worker.  The parent owns the attempt counter and
    ships it with the task, so injected fault scopes replay deterministically
    across respawned pools.
    """
    global _WORKER_ANALYZER
    analyzer = _WORKER_ANALYZER
    if analyzer is None or analyzer.settings != settings:
        analyzer = MisconfigurationAnalyzer(settings=settings)
        _WORKER_ANALYZER = analyzer
    with faults.fault_scope(key, attempt):
        faults.fault_point(faults.WORKER_KILL)
        try:
            analyzed = _analyze_application(app, analyzer, stage_errors=True)
            analyzed.attempts = attempt
            return ("ok", analyzed)
        except Exception as exc:  # ships as data: workers never poison the pool
            return ("err", _failure_payload(exc))


class _PoolSweep:
    """The self-healing process-pool sweep: submit/collect with a watchdog.

    Each round submits every still-pending chart (attempt number attached),
    then collects.  A chart that returns an error payload is charged an
    attempt and retried (with backoff) or quarantined.  If the pool breaks
    -- a worker died, or the watchdog terminated a worker running an overdue
    chart -- completed results are kept, the pool is respawned, and the
    charts that were in flight are re-run *solo* (one in flight at a time):
    a solo breakage attributes the crash exactly, so only the guilty chart
    is charged.  Charts never observed to fail attributably keep their
    attempt count, which makes the whole schedule deterministic for any
    seeded fault plan.
    """

    def __init__(
        self,
        applications: list[BuiltApplication],
        settings: AnalyzerSettings,
        workers: int,
        max_attempts: int,
        chart_timeout: float | None,
        retry_backoff: float,
        fault_plan: faults.FaultPlan | None,
        on_outcome=None,
    ) -> None:
        self.applications = applications
        self.settings = settings
        self.workers = workers
        self.max_attempts = max_attempts
        self.chart_timeout = chart_timeout
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        #: Called with each finalized outcome the moment it is decided (ok
        #: or quarantine) -- the durable sweep's hook, which stages it into
        #: the open group commit.
        self.on_outcome = on_outcome
        self.outcomes: list[AnalyzedApplication | AnalysisFailure | None]
        self.outcomes = [None] * len(applications)
        self.attempts = [0] * len(applications)
        self.pool = None

    # Pool lifecycle ----------------------------------------------------------
    def _spawn_pool(self):
        if self.pool is None:
            # Imported here: it pulls in ``multiprocessing``, which a serial
            # sweep never needs.
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_worker_init,
                initargs=(self.fault_plan,),
            )
        return self.pool

    def _discard_pool(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)
            self.pool = None

    def _terminate_pool(self) -> None:
        # Forcibly kill the worker processes (the watchdog path): pending
        # futures then resolve to BrokenProcessPool like any worker death.
        if self.pool is None:
            return
        processes = getattr(self.pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    # Submission --------------------------------------------------------------
    def _submit(self, index: int) -> Future:
        app = self.applications[index]
        return self._spawn_pool().submit(
            _analyze_application_in_subprocess,
            app,
            self.settings,
            key=f"{app.dataset}/{app.name}",
            attempt=self.attempts[index] + 1,
        )

    def _record(self, index: int, tag: str, payload) -> bool:
        """Charge an attributable outcome; True when the chart needs a retry."""
        self.attempts[index] += 1
        if tag == "ok":
            self.outcomes[index] = payload
            self._finalize(index)
            return False
        if self.attempts[index] >= self.max_attempts:
            self.outcomes[index] = _failure_from(
                self.applications[index], payload, self.attempts[index]
            )
            self._finalize(index)
            return False
        return True

    def _finalize(self, index: int) -> None:
        if self.on_outcome is not None:
            self.on_outcome(self.outcomes[index])

    def _pool_death_payload(self, index: int, timed_out: bool) -> tuple:
        app = self.applications[index]
        if timed_out:
            return (
                FAILURE_STAGE_TIMEOUT,
                "TimeoutError",
                f"chart {app.dataset}/{app.name} exceeded the per-chart "
                f"watchdog ({self.chart_timeout}s); worker terminated",
                "",
            )
        return (
            FAILURE_STAGE_WORKER,
            "BrokenProcessPool",
            f"worker process died while analyzing {app.dataset}/{app.name}",
            "",
        )

    # Collection --------------------------------------------------------------
    def _collect(
        self, futures: dict[Future, int], solo: bool
    ) -> tuple[list[int], list[int], bool]:
        """Await ``futures``; returns (retry indices, suspect indices, broke).

        Suspects are charts whose future resolved to a pool breakage in a
        *parallel* round -- unattributable, so they are not charged and go
        to a solo re-run.  In a solo round (one future) a breakage IS
        attributable and is charged as a worker death (or a timeout, when
        this collector's watchdog terminated the pool itself).
        """
        retry: list[int] = []
        suspects: list[int] = []
        broke = False
        started: dict[Future, float] = {}
        overdue: set[Future] = set()
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, timeout=_POLL_S, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for fut in done:
                index = futures[fut]
                exc = fut.exception()
                if isinstance(exc, BrokenExecutor):
                    broke = True
                    if solo or fut in overdue:
                        if self._record(
                            index, "err", self._pool_death_payload(index, fut in overdue)
                        ):
                            retry.append(index)
                    else:
                        suspects.append(index)
                elif exc is not None:
                    # Submission-side failure (e.g. unpicklable task): it is
                    # chart-attributable, never a worker death.
                    if self._record(index, "err", _failure_payload(exc)):
                        retry.append(index)
                else:
                    tag, payload = fut.result()
                    if self._record(index, tag, payload):
                        retry.append(index)
            if not not_done:
                break
            for fut in not_done:
                if fut not in started and fut.running():
                    started[fut] = now
            if self.chart_timeout is not None and not broke:
                late = [
                    fut
                    for fut, begun in started.items()
                    if fut in not_done and now - begun > self.chart_timeout
                ]
                if late:
                    # The overdue charts are known: their breakage is charged
                    # as a timeout, everyone else in flight becomes a suspect.
                    overdue.update(late)
                    broke = True
                    self._terminate_pool()
        return retry, suspects, broke

    def _run_round(self, batch: list[int], solo: bool) -> list[int]:
        """Run one batch (parallel or solo); returns the indices to retry."""
        futures = {self._submit(index): index for index in batch}
        retry, suspects, broke = self._collect(futures, solo=solo)
        if broke:
            self._discard_pool()
        for suspect in suspects:
            # One chart in flight at a time: breakage is now attributable.
            retry.extend(self._run_round([suspect], solo=True))
        return retry

    def run(self) -> list[AnalyzedApplication | AnalysisFailure]:
        """Sweep every chart to an outcome; catalogue order preserved."""
        pending = list(range(len(self.applications)))
        try:
            while pending:
                oldest = max((self.attempts[index] for index in pending), default=0)
                if oldest > 0:
                    time.sleep(_backoff_delay(oldest, self.retry_backoff))
                pending = sorted(self._run_round(pending, solo=False))
        finally:
            self._discard_pool()
        return list(self.outcomes)


def _sweep(
    applications: list[BuiltApplication],
    analyzer: MisconfigurationAnalyzer,
    *,
    workers: int | None,
    max_attempts: int,
    chart_timeout: float | None,
    retry_backoff: float,
    fault_plan: faults.FaultPlan | None,
    reused: dict[int, AnalyzedApplication] | None = None,
    store: ResultStore | None = None,
) -> EvaluationResult:
    """The sweep engine behind every full, durable and delta sweep.

    ``reused`` maps catalogue indices to pre-M4* entries that need no work
    (a delta round's unchanged charts); with a ``store``, the verified
    entries it holds join them.  Every other chart runs fault-isolated:
    on :class:`_PoolSweep` when ``workers`` > 1 (the pool rebuilds the
    default analyzer from ``analyzer.settings``), else on
    :func:`_run_isolated`.  Each fresh outcome joins the store's open
    group the moment it is decided, and the group commits once its oldest
    chart has waited :data:`~repro.store.GROUP_COMMIT_S`; the group still
    open commits when the sweep returns or raises.  Outcomes merge in
    catalogue order; the caller runs the cluster-wide M4* pass over the
    merged result.

    ``fault_plan``, or else the plan the caller armed, is armed over the
    store load and every chart, and the caller's plan is restored
    afterwards.  ``max_attempts`` below 1 and a duplicate
    ``(dataset, name)`` key raise ``ValueError`` before any chart runs or
    the store is touched.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    result = EvaluationResult()
    with faults.plan_armed(fault_plan if fault_plan is not None else faults.armed_plan()):
        # The store, the journal, the delta planner and the M4* pass all
        # key a chart on (dataset, name): two charts sharing one would
        # overwrite each other's results.
        seen: set[tuple[str, str]] = set()
        for app in applications:
            if (app.dataset, app.name) in seen:
                raise ValueError(f"duplicate chart key {app.dataset}/{app.name}")
            seen.add((app.dataset, app.name))
        durable = (
            _DurableSweep(store, applications, analyzer.settings) if store is not None else None
        )
        try:
            done = dict(reused or {})
            if durable is not None:
                done.update(durable.load())
            pending = [app for index, app in enumerate(applications) if index not in done]
            note = durable.note if durable is not None else None
            if pending and workers and workers > 1:
                fresh = _PoolSweep(
                    pending,
                    analyzer.settings,
                    workers,
                    max_attempts,
                    chart_timeout,
                    retry_backoff,
                    faults.armed_plan(),
                    on_outcome=note,
                ).run()
            else:
                fresh = []
                for app in pending:
                    outcome = _run_isolated(app, analyzer, max_attempts, retry_backoff)
                    if note is not None:
                        note(outcome)
                    fresh.append(outcome)
            computed = iter(fresh)
            for index in range(len(applications)):
                outcome = done[index] if index in done else next(computed)
                if isinstance(outcome, AnalyzedApplication):
                    result.analyzed.append(outcome)
                else:
                    result.failed.append(outcome)
        finally:
            if durable is not None:
                result.store_stats = durable.finish()
    return result


def run_full_evaluation(
    analyzer: MisconfigurationAnalyzer | None = None,
    applications: list[BuiltApplication] | None = None,
    workers: int | None = None,
    max_attempts: int = 3,
    chart_timeout: float | None = None,
    retry_backoff: float = 0.05,
    fault_plan: faults.FaultPlan | None = None,
    store: ResultStore | str | Path | None = None,
    settings: AnalyzerSettings | None = None,
) -> EvaluationResult:
    """Analyze ``applications`` (default: the built catalogue), then run the M4* pass.

    ``workers`` > 1 fans the charts out on a *process* pool -- real
    parallelism for this CPU-bound, GIL-holding workload.  Charts are fully
    independent (observations share nothing across charts, the rules are
    stateless) and the per-chart inputs and reports are plain picklable
    dataclasses.  Pool workers rebuild the default analyzer from its
    settings, so a custom ``analyzer`` (whose rules or session may not
    pickle) always runs serially.  Result ordering is catalogue order
    either way, and the cluster-wide M4* pass always runs sequentially
    afterwards over the ordered label surfaces.

    Fault isolation: a failing chart is retried up to ``max_attempts``
    times with capped exponential backoff (``retry_backoff`` seconds,
    doubling), then quarantined as an :class:`AnalysisFailure` on
    ``EvaluationResult.failed`` while the sweep continues.  On the
    process-pool path the sweep also survives worker deaths
    (``BrokenProcessPool``) by respawning the pool, and ``chart_timeout``
    arms a per-chart wall-clock watchdog (process pool only: in-process
    execution cannot be preempted).  ``fault_plan`` arms a deterministic
    :class:`repro.faults.FaultPlan` for the duration of the sweep (parent
    and workers alike) -- the chaos suites' entry point; without one, the
    sweep runs under whatever plan the caller armed.  ``max_attempts``
    below 1 and duplicate ``(dataset, name)`` keys in ``applications``
    raise ``ValueError`` before any chart runs.

    Durability: ``store`` (a :class:`~repro.store.ResultStore` or a
    directory path) makes the sweep consult and feed the content-addressed
    result store -- completed charts load instead of recomputing, and
    fresh outcomes persist in time-bounded groups as they finish
    (:data:`~repro.store.GROUP_COMMIT_S`), each result in one commit with
    its journal record; a crash loses at most the open group, which the
    next sweep recomputes.  Only this process opens the store: pool workers
    never do.  The journal continues while the sweep identity (the ordered
    result keys) holds and rotates when it moves; the analyzed output is
    byte-identical with or without a store.  ``EvaluationResult.store_stats``
    carries the accounting.

    ``settings`` builds the default analyzer from explicit
    :class:`~repro.core.AnalyzerSettings` while keeping every default-path
    optimization (process pools).  It is mutually exclusive with
    ``analyzer``, whose custom rules or session the sweep cannot vouch
    for.
    """
    custom_analyzer = analyzer is not None
    if custom_analyzer and settings is not None:
        raise ValueError("pass either analyzer or settings, not both")
    analyzer = analyzer or MisconfigurationAnalyzer(settings=settings or AnalyzerSettings())
    applications = applications if applications is not None else build_catalog()

    store_obj = store if isinstance(store, (ResultStore, type(None))) else ResultStore(store)
    result = _sweep(
        applications,
        analyzer,
        # Pool workers rebuild the default analyzer from its settings alone.
        workers=None if custom_analyzer else workers,
        max_attempts=max_attempts,
        chart_timeout=chart_timeout,
        retry_backoff=retry_backoff,
        fault_plan=fault_plan,
        store=store_obj,
    )
    apply_cluster_wide_pass(result)
    return result


def apply_cluster_wide_pass(result: EvaluationResult) -> None:
    """Run the cluster-wide M4* pass over ``result`` and attribute findings.

    The global label-collision scan is the one cross-chart stage of the
    pipeline: it consumes *every* analyzed entry's label surface (in
    catalogue order) and appends the resulting M4* findings to the
    affected reports.  Full and durable sweeps run it over the merged
    pre-M4* entries.  A delta round runs the incremental
    :class:`~repro.core.CollisionIndex` instead, and this pass is its
    oracle.
    """
    inventories = [
        ApplicationInventory(
            application=f"{entry.application.dataset}/{entry.application.name}",
            inventory=entry.surface,
        )
        for entry in result.analyzed
    ]
    by_id = {
        inventory.application: entry for inventory, entry in zip(inventories, result.analyzed)
    }
    for finding in global_collision_findings(inventories):
        entry = by_id.get(finding.application)
        if entry is not None:
            finding.application = entry.application.name
            entry.report.add([finding])
