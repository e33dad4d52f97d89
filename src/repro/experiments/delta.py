"""Incremental delta-evaluation: re-verify only what changed (watch mode).

The paper's premise is *continuous* defense: clusters drift one chart or
values file at a time, yet a from-scratch sweep re-evaluates all 290
catalogue charts on every run.  :class:`DeltaEvaluator` closes that gap.
Given its own last round and the current chart set, it classifies every
chart by comparing the ``chart``, ``behaviors`` and ``settings``
fingerprints (:func:`~repro.experiments.evaluation.key_fingerprints`),
the inputs a chart's ``result_key`` covers:

============  =====================================================
class         meaning
============  =====================================================
unchanged     all three equal, prior result healthy -- the pre-M4*
              report and label surface are reused as-is
re-render     the chart content moved; the reason names ``values``
              and/or ``templates``, else ``chart`` (metadata or
              subcharts), or ``prior failure``
re-observe    the registered container behaviours moved while the
              chart content held
re-analyze    the analyzer settings moved
added         no prior record exists for the chart key
============  =====================================================

Every class but ``unchanged`` runs render, observe and analyze again;
warm caches only make stages cheap.  ``values`` and ``templates`` are
hashed only for a chart whose ``chart`` fingerprint moved, to name the
reason.

Charts present in the prior state but absent now are *removed*: their
entries simply do not appear in the merged result.

Staleness rules
---------------

Reuse is sound only for the per-chart (pre-M4*) stage: the cluster-wide
label-collision pass consumes *every* chart's label surface, so a change
anywhere can move M4* findings on unchanged charts.  A round keeps the
pass's label groups and selector postings per chart in a
:class:`~repro.core.CollisionIndex`: it retracts removed, recomputed and
quarantined charts, adds the new ones, and re-derives M4* findings only
for the applications whose collision groups or selector matches the
change touched.  Those reused reports are stripped into fresh
:class:`~repro.core.AnalysisReport` objects first -- the prior result is
never mutated -- and every other reused entry keeps its post-M4* report.
:func:`~repro.experiments.evaluation.apply_cluster_wide_pass` is the
index's oracle.  A chart whose prior attempt failed is always recomputed
-- a quarantined failure is never "unchanged".  The result is
byte-identical to a from-scratch sweep; the differential suite in
``tests/experiments/test_delta_evaluation.py`` proves it over the full
catalogue for randomized change sets, serial and pooled, faults included.

Prior state
-----------

Each round classifies against the evaluator's own last round, keeping its
entries with the fingerprints taken when it was classified (a registry
registered into since has moved its live fingerprint), and the M4* index
mirrors that last round.  This is the watch-mode hot path -- no store
reads, near-zero cost for a no-op round (the ``DELTA_NOOP_RATIO_LIMIT``
gate in ``benchmarks/run.py --check`` pins it at <= 5% of a full sweep).
The round runs on the sweep engine of :mod:`repro.experiments.evaluation`,
the same one a from-scratch sweep uses: this module only decides which
entries are reused.

A durable sweep needs no evaluator: the store reuses entries by content
key.  :func:`journal_plan` classifies a chart set against the generation
of a store's epoch-tagged journal that the sweep found as it opened
(:class:`repro.store.PriorState` -- last-wins, one live record per chart
key) with the same rules, computing nothing; a record without classifier
fingerprints classifies its chart as ``added``.  ``insidejob sweep
--store DIR`` prints that plan before its table.

``insidejob watch <dir>`` drives :func:`watch_directory`: scan a directory
of on-disk charts, evaluate the delta against the previous round, print one
summary line per round.  The rescan is content-keyed
(:func:`scan_chart_directory`): a directory whose stat record still holds
under the same behaviours yields the previous round's chart object, so
only edited directories are parsed again.  Stat signatures under git's
racy-clean rule (:data:`RACY_WINDOW_NS`) establish that the bytes held
without reading them; a file the signatures cannot vouch for is compared
by digest.
"""

from __future__ import annotations

import hashlib
import os
import stat
import time
import traceback
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .. import faults
from ..cluster import BehaviorRegistry
from ..core import (
    AnalysisReport,
    AnalyzerSettings,
    ApplicationInventory,
    CollisionIndex,
    MisconfigClass,
    MisconfigurationAnalyzer,
)
from ..datasets import BuiltApplication, build_catalog
from ..helm import Chart, ChartSource, ValuesError
from ..store import PriorState
from .evaluation import (
    FAILURE_STAGE_LOAD,
    AnalysisFailure,
    AnalyzedApplication,
    EvaluationResult,
    _sweep,
    classifier_fingerprints,
    key_fingerprints,
    settings_fingerprint,
)

#: Delta classifications, in reporting order.
DELTA_UNCHANGED = "unchanged"
DELTA_ADDED = "added"
DELTA_RE_RENDER = "re-render"
DELTA_RE_OBSERVE = "re-observe"
DELTA_RE_ANALYZE = "re-analyze"
DELTA_CLASSES = (
    DELTA_UNCHANGED,
    DELTA_ADDED,
    DELTA_RE_RENDER,
    DELTA_RE_OBSERVE,
    DELTA_RE_ANALYZE,
)

#: The render inputs a moved ``chart`` fingerprint is explained by.
_RENDER_AXES = ("values", "templates")


@dataclass(frozen=True)
class ChartDelta:
    """One chart's delta classification, with the inputs that moved."""

    unique_id: str
    classification: str
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeltaPlan:
    """What a delta round will reuse and what it must recompute.

    ``charts`` is aligned with the application list the plan was built
    for (catalogue order); ``removed`` names prior charts absent from the
    current set; ``prior_epoch`` is the journal epoch (:func:`journal_plan`)
    or the evaluator's completed round count (:class:`DeltaEvaluator`) the
    plan was classified against.
    """

    charts: tuple[ChartDelta, ...]
    removed: tuple[str, ...] = ()
    prior_epoch: int = 0

    def counts(self) -> dict[str, int]:
        """Chart count per classification (every class present, 0 or not)."""
        counts = {classification: 0 for classification in DELTA_CLASSES}
        for delta in self.charts:
            counts[delta.classification] += 1
        return counts

    def classification_of(self, unique_id: str) -> str | None:
        """The classification of one ``dataset/name`` key (None if absent)."""
        for delta in self.charts:
            if delta.unique_id == unique_id:
                return delta.classification
        return None


@dataclass
class _PriorRecord:
    """One chart's prior state, from the last round or a journal record.

    ``fingerprints`` holds at least :func:`key_fingerprints` as they were
    when the prior round was classified (a registry registered into since
    has moved its live fingerprint); ``None`` means a quarantined chart.
    """

    fingerprints: dict | None
    ok: bool
    entry: AnalyzedApplication | None = None


def _strip_cluster_wide(entry: AnalyzedApplication) -> AnalyzedApplication:
    """A pre-M4* copy of one prior analyzed entry.

    Prior in-memory results are *post*-M4*: the cluster-wide pass already
    appended its findings.  Only the M4* pass emits
    :data:`~repro.core.MisconfigClass.M4_GLOBAL` (per-chart rules emit
    M4A/B/C), so filtering it out reconstructs the exact pre-M4* report.
    The report object is fresh -- the new round must never mutate the
    prior result's reports.
    """
    report = entry.report
    findings = [
        finding
        for finding in report.findings
        if finding.misconfig_class is not MisconfigClass.M4_GLOBAL
    ]
    return AnalyzedApplication(
        application=entry.application,
        report=AnalysisReport(
            application=report.application, dataset=report.dataset, findings=findings
        ),
        surface=entry.surface,
        attempts=entry.attempts,
    )


def _cluster_wide_delta(
    result: EvaluationResult,
    reused: dict[int, AnalyzedApplication],
    index: CollisionIndex,
) -> CollisionIndex:
    """Run an in-memory round's M4* pass through ``index``; return the index.

    Fresh entries are pre-M4* and get their findings.  A reused entry
    keeps its prior post-M4* report unless ``index`` reports its
    application as touched; then a stripped copy replaces it and gets the
    re-derived findings.  Equal to :func:`apply_cluster_wide_pass` over the
    stripped entries, which the differential suites check.
    """
    carried = {id(entry) for entry in reused.values()}
    keys = [f"{entry.application.dataset}/{entry.application.name}" for entry in result.analyzed]
    touched = index.update(
        [
            ApplicationInventory(application=key, inventory=entry.surface)
            for key, entry in zip(keys, result.analyzed)
        ]
    )
    for position, (key, entry) in enumerate(zip(keys, result.analyzed)):
        if id(entry) in carried:
            if key not in touched:
                continue
            entry = result.analyzed[position] = _strip_cluster_wide(entry)
        findings = index.findings(key)
        if findings:
            for finding in findings:
                finding.application = entry.application.name
            entry.report.add(findings)
    return index


def _classify(
    unique_id: str,
    app: BuiltApplication,
    current: dict,
    prior: _PriorRecord | None,
    settings_fp: str,
) -> ChartDelta:
    if prior is None:
        return ChartDelta(unique_id, DELTA_ADDED, ("no prior record",))
    fingerprints = prior.fingerprints
    if fingerprints is not None:
        if fingerprints.get("chart") != current["chart"]:
            return ChartDelta(unique_id, DELTA_RE_RENDER, _render_reasons(app, prior, settings_fp))
        if fingerprints.get("behaviors") != current["behaviors"]:
            return ChartDelta(unique_id, DELTA_RE_OBSERVE, ("behaviors",))
        if fingerprints.get("settings") != current["settings"]:
            return ChartDelta(unique_id, DELTA_RE_ANALYZE, ("settings",))
    if not prior.ok:
        return ChartDelta(unique_id, DELTA_RE_RENDER, ("prior failure",))
    return ChartDelta(unique_id, DELTA_UNCHANGED)


def _render_reasons(
    app: BuiltApplication, prior: _PriorRecord, settings_fp: str
) -> tuple[str, ...]:
    """Which of ``values`` and ``templates`` moved; ``("chart",)`` when neither did.

    Only a moved chart is hashed along these axes: a journal record
    carries the prior's fingerprints, an in-memory prior its chart.
    """
    now = classifier_fingerprints(app, settings_fp)
    before = (
        prior.fingerprints
        if prior.entry is None
        else classifier_fingerprints(prior.entry.application, settings_fp)
    )
    moved = tuple(axis for axis in _RENDER_AXES if before.get(axis) != now[axis])
    return moved or ("chart",)


def _plan(
    applications: list[BuiltApplication],
    prior: dict[str, _PriorRecord],
    prior_epoch: int,
    settings_fp: str,
) -> tuple[DeltaPlan, dict[str, dict]]:
    """The plan against ``prior`` and each chart's :func:`key_fingerprints`."""
    keys: dict[str, dict] = {}
    deltas = []
    for app in applications:
        unique_id = f"{app.dataset}/{app.name}"
        current = keys[unique_id] = key_fingerprints(app, settings_fp)
        deltas.append(_classify(unique_id, app, current, prior.get(unique_id), settings_fp))
    removed = tuple(sorted(unique_id for unique_id in prior if unique_id not in keys))
    return DeltaPlan(charts=tuple(deltas), removed=removed, prior_epoch=prior_epoch), keys


def journal_plan(prior: PriorState, applications: list[BuiltApplication]) -> DeltaPlan:
    """Classify ``applications`` against a store journal's prior state, computing nothing.

    ``prior`` is the generation a durable sweep's journal found as it
    opened (its ``store_stats["journal_prior"]``, see
    :meth:`repro.store.SweepJournal.begin`), or what
    :func:`repro.store.read_prior_state` reads of a store directory;
    ``prior_epoch`` is its epoch (0 without a journal).  A record without
    classifier fingerprints is no prior: its chart is ``added``.  Charts
    classify under the default :class:`~repro.core.AnalyzerSettings`, the
    ones ``insidejob sweep`` runs.
    """
    records = {
        unique_id: _PriorRecord(fingerprints=record["fp"], ok=record.get("status") == "ok")
        for unique_id, record in prior.records.items()
        if isinstance(record.get("fp"), dict)
    }
    settings_fp = settings_fingerprint(AnalyzerSettings())
    return _plan(list(applications), records, prior.epoch, settings_fp)[0]


class DeltaEvaluator:
    """Incrementally re-evaluate a chart set against its own last round.

    One evaluator holds one :class:`~repro.core.MisconfigurationAnalyzer`
    across rounds, so the render cache and the observation memo stay warm:
    a chart reverted to content an earlier round saw renders and observes
    from them.  ``evaluate`` returns a plain :class:`EvaluationResult`
    byte-identical to a from-scratch sweep of the same chart set, with
    ``delta_stats`` carrying the round's accounting.
    """

    def __init__(
        self,
        settings: AnalyzerSettings | None = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
    ) -> None:
        self.settings = settings or AnalyzerSettings()
        self.settings_fp = settings_fingerprint(self.settings)
        self.analyzer = MisconfigurationAnalyzer(settings=self.settings)
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: Completed delta rounds (the in-memory analogue of a journal epoch).
        self.rounds = 0
        self._last: EvaluationResult | None = None
        #: The :func:`key_fingerprints` of ``_last``'s charts by chart key,
        #: taken when that round was classified.
        self._last_keys: dict[str, dict] = {}
        #: The chart set of the last round, replaced every round: a watch
        #: rescan reuses its objects for directories whose bytes held.
        self._charts: list = []
        #: The incremental M4* state of the last round.
        self._collisions: CollisionIndex | None = None

    # Classification ----------------------------------------------------------
    def plan(self, applications: list[BuiltApplication]) -> DeltaPlan:
        """Classify ``applications`` against the last round, computing nothing."""
        plan, _, _ = self._plan_with_index(list(applications))
        return plan

    def _plan_with_index(
        self, applications: list[BuiltApplication]
    ) -> tuple[DeltaPlan, dict[str, _PriorRecord], dict[str, dict]]:
        """The plan, the prior it read and each chart's :func:`key_fingerprints`."""
        prior = self._memory_prior_index() if self._last is not None else {}
        plan, keys = _plan(applications, prior, self.rounds, self.settings_fp)
        return plan, prior, keys

    def _memory_prior_index(self) -> dict[str, _PriorRecord]:
        index: dict[str, _PriorRecord] = {}
        for entry in self._last.analyzed:
            unique_id = f"{entry.application.dataset}/{entry.application.name}"
            index[unique_id] = _PriorRecord(self._last_keys[unique_id], True, entry)
        for failure in self._last.failed:
            # A quarantined chart has no reusable artefacts: prior-failure.
            index.setdefault(failure.unique_id, _PriorRecord(None, False))
        return index

    # Evaluation --------------------------------------------------------------
    def evaluate(
        self,
        applications: list[BuiltApplication] | None = None,
        *,
        workers: int | None = None,
        chart_timeout: float | None = None,
        fault_plan: faults.FaultPlan | None = None,
    ) -> EvaluationResult:
        """Run one delta round; byte-identical to a from-scratch sweep.

        Reuses every unchanged chart's report and label surface and hands the
        rest to the sweep engine (serial fault-isolated, or the
        self-healing process pool when ``workers`` > 1), which merges in
        catalogue order.  The cluster-wide pass then runs incrementally
        over the evaluator's M4* index.  ``fault_plan`` arms deterministic
        chaos for the round; a chart that fails mid-delta lands on
        ``result.failed`` -- its stale prior entry is never served.
        """
        applications = list(applications) if applications is not None else build_catalog()
        self._charts = applications
        # The M4* index mirrors the last round; a round that raises drops it.
        collisions, self._collisions = self._collisions, None
        plan, prior_index, keys = self._plan_with_index(applications)
        reused: dict[int, AnalyzedApplication] = {}
        for index, delta in enumerate(plan.charts):
            if delta.classification == DELTA_UNCHANGED:
                reused[index] = prior_index[delta.unique_id].entry

        # Reused entries carry their prior *post*-M4* reports.
        result = _sweep(
            applications,
            self.analyzer,
            workers=workers,
            max_attempts=self.max_attempts,
            chart_timeout=chart_timeout,
            retry_backoff=self.retry_backoff,
            fault_plan=fault_plan,
            reused=reused,
        )
        self._collisions = _cluster_wide_delta(result, reused, collisions or CollisionIndex())
        result.delta_stats = {
            "round": self.rounds + 1,
            "charts": len(applications),
            "classified": plan.counts(),
            "changed": [
                delta.unique_id
                for delta in plan.charts
                if delta.classification != DELTA_UNCHANGED
            ],
            "reasons": {
                delta.unique_id: list(delta.reasons) for delta in plan.charts if delta.reasons
            },
            "removed": list(plan.removed),
            "reused": len(reused),
            "recomputed": len(applications) - len(reused),
            "prior_epoch": plan.prior_epoch,
            "epoch": self.rounds + 1,
        }
        self.rounds += 1
        self._last, self._last_keys = result, keys
        return result


# Watch mode ------------------------------------------------------------------


#: The dataset every watched chart (and every load failure) belongs to.
WATCH_DATASET = "watch"

#: How much older than the scan that recorded it a file's mtime and ctime
#: must be before an unchanged stat signature alone vouches for its bytes.
#: This is git's racy-clean rule: an edit inside the same timestamp tick as
#: a scan leaves the signature as it was, so a file whose timestamps fall
#: inside the window is read again.  Two seconds covers filesystems with
#: 1 s and 2 s timestamps and coarse kernel clock ticks.  The timestamps are
#: compared with this host's wall clock, so a filesystem whose clock runs
#: more than the window behind it (a remote server's) defeats the rule.
RACY_WINDOW_NS = 2_000_000_000

#: A stat signature: ``(size, mtime_ns, ctime_ns, inode)``.
Signature = tuple[int, int, int, int]


def _scan_clock_ns() -> int:
    """The scan's clock: wall time, the clock file timestamps are taken from."""
    return time.time_ns()


def _signature(path: str, kind: int = stat.S_IFREG) -> Signature | None:
    """The scan's one ``stat``: the signature of ``path`` if it has file type ``kind``.

    Symlinks are followed.  ``None`` when ``path`` is absent or of another
    type.
    """
    try:
        st = os.stat(path)
    except (FileNotFoundError, NotADirectoryError):
        return None
    if stat.S_IFMT(st.st_mode) != kind:
        return None
    return (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


@dataclass(slots=True)
class _StatRecord:
    """What a scan confirmed a chart directory held, by signature and by digest.

    ``paths`` are the directory's ``templates/``, ``Chart.yaml``,
    ``values.yaml`` and then every entry of ``templates/``, sorted.
    ``signatures`` and ``digests`` align with them.  Both are ``None`` for
    a path that is absent or not a regular file, or for ``templates/``
    not a directory.  ``templates/`` has no digest: its signature vouches
    for its listing.  ``checked_ns`` is the start of the scan that last
    confirmed every path.  ``settled`` says that every recorded mtime and
    ctime predates it by :data:`RACY_WINDOW_NS`.
    """

    checked_ns: int
    paths: tuple[str, ...]
    signatures: tuple[Signature | None, ...]
    digests: tuple[bytes | None, ...]
    settled: bool = field(init=False)

    def __post_init__(self) -> None:
        self.settled = all(map(self.vouches_for, self.signatures))

    def vouches_for(self, signature: Signature | None) -> bool:
        """Whether ``signature``, if recorded and unchanged, proves its path unchanged."""
        horizon = self.checked_ns - RACY_WINDOW_NS
        return signature is None or (signature[1] < horizon and signature[2] < horizon)


def _record(directory: str, source: ChartSource, now: int) -> _StatRecord | None:
    """The record of a directory just read into ``source``; ``None`` if it moved meanwhile.

    The signatures are taken after the bytes were read.  That is sound:
    anything written after the scan started at ``now`` falls inside the
    racy window, so the next scan reads it again.
    """
    templates = f"{directory}/templates"
    paths = [templates, f"{directory}/Chart.yaml", f"{directory}/values.yaml"]
    read = {paths[1]: source.chart_yaml, paths[2]: source.values_yaml}
    signatures = [_signature(templates, stat.S_IFDIR)]
    if (signatures[0] is None) != (source.templates is None):
        return None
    if signatures[0] is not None:
        try:
            listing = sorted(os.listdir(templates))
        except (FileNotFoundError, NotADirectoryError):
            return None
        paths += [f"{templates}/{name}" for name in listing]
        read.update((f"{templates}/{name}", data) for name, data in source.templates)
        if not read.keys() <= set(paths):
            return None  # a template read is gone from the second listing
    digests: list[bytes | None] = [None]
    for path in paths[1:]:
        signature = _signature(path)
        data = read.get(path)
        if (signature is None) != (data is None):
            return None  # appeared or vanished while the directory was read
        signatures.append(signature)
        digests.append(None if data is None else _digest(data))
    return _StatRecord(now, tuple(paths), tuple(signatures), tuple(digests))


def _confirm(record: _StatRecord, now: int) -> _StatRecord | None:
    """``record``, refreshed to the scan at ``now``, while its directory still matches it.

    A settled record whose signatures all held opens nothing.  Otherwise a
    path whose signature held and predates the recording scan by the racy
    window is still vouched for; any other file is read once and compared
    with its digest, and a ``templates/`` directory that is not vouched
    for is listed again.  ``None`` means something changed or vanished,
    and the directory must be read afresh.
    """
    paths = record.paths
    current = (_signature(paths[0], stat.S_IFDIR), *map(_signature, paths[1:]))
    if record.settled and current == record.signatures:
        return record
    recorded = record.signatures
    if current[0] != recorded[0] or not record.vouches_for(current[0]):
        if current[0] is None or recorded[0] is None:
            return None
        try:
            listing = sorted(os.listdir(paths[0]))
        except (FileNotFoundError, NotADirectoryError):
            return None
        if [f"{paths[0]}/{name}" for name in listing] != list(paths[3:]):
            return None
    for path, old, new, digest in zip(paths[1:], recorded[1:], current[1:], record.digests[1:]):
        if new == old and record.vouches_for(new):
            continue
        if new is None or old is None:
            return None
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return None
        if _digest(data) != digest:
            return None
    return _StatRecord(now, paths, current, record.digests)


@dataclass
class WatchedChart:
    """An on-disk chart under watch, quacking like a ``BuiltApplication``.

    The evaluation pipeline only touches ``chart`` / ``behaviors`` /
    ``dataset`` / ``name`` / ``fingerprint()``, so a watched directory
    needs no synthetic catalogue spec.  Behaviours default to an empty
    registry: unregistered images behave faithfully, the right null
    hypothesis for charts we have never observed.  Plain picklable, so
    pooled delta rounds fan watched charts out like catalogue ones.

    ``scan_key`` is what the chart was loaded from: its directory and the
    behaviours fingerprint at load time.  A rescan under the same
    behaviours returns this very object while the stat record beside it
    (every file's signature and digest) confirms that the directory still
    holds the bytes the chart was parsed from; a rescan refreshes it.
    """

    chart: Chart
    behaviors: BehaviorRegistry = field(default_factory=BehaviorRegistry)
    dataset: str = WATCH_DATASET
    use_case: str = "watch"
    scan_key: tuple[str, str] | None = field(default=None, repr=False, compare=False)
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)
    _stat_record: _StatRecord | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        """The chart name from ``Chart.yaml`` (or the directory name)."""
        return self.chart.name

    def fingerprint(self) -> str:
        """The chart's content fingerprint, hashed once and cached."""
        if self._fingerprint is None:
            self._fingerprint = self.chart.fingerprint()
        return self._fingerprint


class ChartScan(list):
    """The charts one directory scan loaded, in name order, plus what failed.

    A plain list of :class:`WatchedChart`, so any sweep takes it as its
    application list.  ``failed`` holds one ``load``-stage
    :class:`~repro.experiments.evaluation.AnalysisFailure` per directory
    that could not be loaded; ``reused`` counts the charts taken over from
    the previous scan.
    """

    def __init__(self) -> None:
        super().__init__()
        self.failed: list[AnalysisFailure] = []
        self.reused = 0

    @property
    def stats(self) -> dict[str, int]:
        """Chart directories found, and how many were reused, parsed or failed."""
        return {
            "dirs": len(self) + len(self.failed),
            "reused": self.reused,
            "parsed": len(self) - self.reused,
            "load_failed": len(self.failed),
        }


def _chart_directories(base: str) -> list[str]:
    """``base`` itself when it holds a ``Chart.yaml``, else its subdirectories."""
    if os.path.isfile(os.path.join(base, "Chart.yaml")):
        return [base]
    try:
        with os.scandir(base) as listing:
            names = sorted(entry.name for entry in listing if entry.is_dir())
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [os.path.join(base, name) for name in names]


def _load_failure(directory: str, exc: Exception) -> AnalysisFailure:
    return AnalysisFailure(
        dataset=WATCH_DATASET,
        name=os.path.basename(directory),
        stage=FAILURE_STAGE_LOAD,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(traceback.format_exception(exc)),
    )


def scan_chart_directory(
    root: Path | str,
    behaviors: BehaviorRegistry | None = None,
    previous: Iterable = (),
) -> ChartScan:
    """Scan ``root`` for chart directories, sorted by name.

    ``root`` itself is the single chart when it holds a ``Chart.yaml``;
    otherwise every immediate subdirectory holding a ``Chart.yaml``, a
    ``values.yaml`` or a ``templates/`` directory is one chart.  Rescanned
    every watch round -- charts added to or removed from the directory
    show up as ``added`` / removed in the next delta plan.

    Content-keyed: a chart in ``previous`` loaded from the same directory
    under the same behaviours fingerprint is returned as the very same
    object while its stat record vouches that the directory still holds
    the same bytes.  The record confirms that without opening a file when
    every signature held and predates the recording scan by
    :data:`RACY_WINDOW_NS`; a file inside the window, or whose signature
    moved, is read and compared with its digest.  Any other directory is
    read once as bytes (:class:`~repro.helm.ChartSource`) and parsed from
    them, and its record digests the same bytes.  A fresh scan (no
    ``previous``) reads and parses every directory.  A directory that
    cannot be loaded (unreadable, not UTF-8, malformed YAML) lands on
    ``failed`` instead of aborting the scan; a file or directory that
    vanishes mid-scan counts as absent.

    Every watched chart is keyed ``watch/<chart name>``, so a directory
    whose chart name an earlier directory (in name order) already took is
    quarantined as a ``load`` failure naming that directory.
    """
    registry = behaviors if behaviors is not None else BehaviorRegistry()
    behaviors_fp = registry.fingerprint()
    now = _scan_clock_ns()
    recorded = {
        chart.scan_key[0]: chart
        for chart in previous
        if isinstance(chart, WatchedChart)
        and chart._stat_record is not None
        and chart.scan_key[1] == behaviors_fp
    }
    scan = ChartScan()
    taken: dict[str, str] = {}
    for directory in _chart_directories(str(Path(root))):
        try:
            chart = recorded.get(directory)
            record = _confirm(chart._stat_record, now) if chart is not None else None
            reused = record is not None
            if not reused:
                source = ChartSource.read(directory)
                if not source.is_chart:
                    continue
                key = (directory, behaviors_fp)
                chart = WatchedChart(chart=source.parse(), behaviors=registry, scan_key=key)
                record = _record(directory, source, now)
            chart._stat_record = record
        except (OSError, UnicodeDecodeError, ValuesError) as exc:
            scan.failed.append(_load_failure(directory, exc))
            continue
        earlier = taken.setdefault(chart.name, directory)
        if earlier != directory:
            clash = ValueError(f"chart name {chart.name!r} is already taken by {earlier}")
            scan.failed.append(_load_failure(directory, clash))
            continue
        scan.reused += reused
        scan.append(chart)
    return scan


def format_delta_counts(stats: dict) -> str:
    """``N unchanged, …, M removed`` from a round's ``delta_stats`` (non-zero classes only)."""
    counts = stats.get("classified", {})
    parts = [
        f"{counts[classification]} {classification}"
        for classification in DELTA_CLASSES
        if counts.get(classification)
    ]
    removed = stats.get("removed") or []
    if removed:
        parts.append(f"{len(removed)} removed")
    return ", ".join(parts) if parts else "no charts"


def format_watch_round(round_number: int, result: EvaluationResult) -> str:
    """One watch-round summary line: classifications, findings, failures."""
    stats = result.delta_stats or {}
    summary = result.summary
    line = (
        f"round {round_number}: {stats.get('charts', len(result.analyzed))} "
        f"chart{'s' if stats.get('charts', len(result.analyzed)) != 1 else ''} "
        f"({format_delta_counts(stats)}); {summary.total_misconfigurations} findings, "
        f"{summary.affected_applications} affected"
    )
    if result.failed:
        line += f", {len(result.failed)} quarantined"
    return line


def _with_failures(
    result: EvaluationResult, failures: list[AnalysisFailure]
) -> EvaluationResult:
    """A copy of ``result`` with ``failures`` appended (``result`` is untouched)."""
    merged = EvaluationResult(analyzed=list(result.analyzed), failed=result.failed + failures)
    merged.store_stats = result.store_stats
    merged.delta_stats = result.delta_stats
    return merged


def watch_directory(
    root: Path | str,
    rounds: int = 0,
    interval: float = 2.0,
    evaluator: DeltaEvaluator | None = None,
    behaviors: BehaviorRegistry | None = None,
    on_round=None,
    printer=print,
    sleep=time.sleep,
) -> EvaluationResult | None:
    """Re-verify a chart directory every ``interval`` seconds.

    Each round rescans ``root`` (reusing the evaluator's previous charts
    for directories whose stat records held, see
    :func:`scan_chart_directory`), runs one delta round against the
    previous one (first round: everything ``added``) and prints one
    summary line.  A directory that cannot be loaded is quarantined on the
    round's ``result.failed`` and re-read the next round; the rest of the
    round proceeds.  ``delta_stats["scan"]`` records the scan's
    accounting (:attr:`ChartScan.stats`).  ``rounds`` bounds the loop
    (0 = until interrupted); Ctrl-C exits cleanly with the last result.
    ``on_round(number, result)`` is the programmatic hook the tests and
    any CI wrapper drive.
    """
    evaluator = evaluator or DeltaEvaluator()
    completed = 0
    result: EvaluationResult | None = None
    try:
        while True:
            scan = scan_chart_directory(root, behaviors=behaviors, previous=evaluator._charts)
            result = evaluator.evaluate(scan)
            result.delta_stats["scan"] = scan.stats
            if scan.failed:
                # Load failures stay out of the evaluator's prior state, so
                # a directory that stays broken does not read as removed.
                result = _with_failures(result, scan.failed)
            completed += 1
            printer(format_watch_round(completed, result))
            if on_round is not None:
                on_round(completed, result)
            if rounds and completed >= rounds:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return result
