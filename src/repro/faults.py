"""Deterministic fault injection for the evaluation pipeline.

The fault-tolerance layer (per-chart isolation, retry, quarantine, the
process-pool watchdog -- see :mod:`repro.experiments.evaluation`) is only
trustworthy if its failure paths are exercised deterministically.  This
module provides that: a picklable :class:`FaultPlan` arms named
*fault sites* threaded through the pipeline's hot paths as near-zero-cost
hooks.  When no plan is armed, :func:`fault_point` is a single global load
and ``None`` check; an armed-but-idle plan (sites armed for charts that
never run) adds one dict lookup and a frozenset membership test per call --
the benchmark gate (``benchmarks/run.py --check``) pins the end-to-end
overhead under 3% (``FAULT_OVERHEAD_LIMIT``).

Sites (:data:`FAULT_SITES`) cover every stage a chart analysis passes
through:

``template.parse``
    Template compilation (:func:`repro.helm.template.compile_source`), at
    the actual parse -- a compile-cache hit bypasses the site, exactly like
    it bypasses the cost.
``structured.assemble``
    Dict-native document assembly
    (:func:`repro.helm.structured.assemble_documents`).
``render_cache.read``
    A render-cache *hit* (:meth:`repro.helm.render_cache.RenderCache.render`).
    The ``corrupt`` kind silently corrupts the stored entry instead of
    raising, exercising the cache's corruption detection.
``observe``
    Runtime observation (:meth:`repro.cluster.session.AnalysisSession.observe`).
``rules``
    Rule evaluation (:meth:`repro.core.analyzer.MisconfigurationAnalyzer.analyze_objects`).
``worker.kill``
    The evaluation process-pool worker entry -- the ``kill`` kind terminates
    the worker process mid-task (``os._exit``), producing a genuine
    ``BrokenProcessPool`` in the parent.
``store.read``
    A result-store lookup (:meth:`repro.store.ResultStore.read`).  The
    ``corrupt`` kind damages the stored row *before* the verified read
    (``corruption`` selects payload truncation, a payload bit-flip, or
    schema version skew), exercising the store's detect/evict/recompute
    contract; ``error`` models an unreadable entry (treated as a miss,
    never fatal).
``store.write``
    A result-store publish (:meth:`repro.store.ResultStore.write`), fired
    after the publish's inserts and before its ``COMMIT`` -- a ``kill``
    fault in a pool worker is therefore a genuine uncommitted crash: the
    rows were written but no partial entry (nor the journal record that
    commits with a result) is ever visible.  ``error`` degrades gracefully
    (the transaction rolls back and is counted, the computation is
    unaffected).

Faults are scoped: the pipeline wraps each chart attempt in
:func:`fault_scope` with the chart key (``"dataset/name"``) and the attempt
number, and a :class:`FaultSpec` fires only while ``attempt <=
spec.attempts`` -- so "fail twice then succeed" retry scenarios are exactly
reproducible, in-process and across respawned worker pools alike (the
parent owns the attempt counter and ships it with every task).

The chaos differential suite (``tests/experiments/test_fault_isolation.py``)
uses this module to prove the fault-isolation invariant: under any injected
plan, every healthy chart's report is byte-identical to a fault-free run.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: The named fault sites, in pipeline order.
TEMPLATE_PARSE = "template.parse"
STRUCTURED_ASSEMBLE = "structured.assemble"
RENDER_CACHE_READ = "render_cache.read"
OBSERVE = "observe"
RULES = "rules"
WORKER_KILL = "worker.kill"
STORE_READ = "store.read"
STORE_WRITE = "store.write"

FAULT_SITES: tuple[str, ...] = (
    TEMPLATE_PARSE,
    STRUCTURED_ASSEMBLE,
    RENDER_CACHE_READ,
    OBSERVE,
    RULES,
    WORKER_KILL,
    STORE_READ,
    STORE_WRITE,
)

#: Fault kinds.  ``error`` raises :class:`InjectedFault`; ``hang`` sleeps
#: ``hang_s`` seconds then continues (a stall, not a failure -- the
#: watchdog's job is to turn it into one); ``kill`` terminates the current
#: *worker* process (outside a pool worker it degrades to ``error`` so a
#: misdirected plan cannot take down the parent or a test runner);
#: ``corrupt`` is inert at :func:`fault_point` -- only sites with an
#: explicit corruption hook (the render cache) act on it.
KIND_ERROR = "error"
KIND_HANG = "hang"
KIND_KILL = "kill"
KIND_CORRUPT = "corrupt"

FAULT_KINDS: tuple[str, ...] = (KIND_ERROR, KIND_HANG, KIND_KILL, KIND_CORRUPT)

#: Corruption modes a ``corrupt`` spec can request at sites that own a
#: corruption hook.  ``truncate`` cuts the entry short (a torn write),
#: ``bitflip`` flips one payload byte (silent media corruption), ``version``
#: rewrites the entry header with a skewed schema version (a stale store).
CORRUPT_TRUNCATE = "truncate"
CORRUPT_BITFLIP = "bitflip"
CORRUPT_VERSION = "version"

CORRUPTION_MODES: tuple[str, ...] = (CORRUPT_TRUNCATE, CORRUPT_BITFLIP, CORRUPT_VERSION)


class InjectedFault(Exception):
    """An armed fault site fired.

    Carries the site, the chart key the scope was set to (``None`` outside
    any scope) and the attempt number, so failure records and tests can
    assert exactly which injection they observed.
    """

    def __init__(self, site: str, key: str | None = None, attempt: int = 1) -> None:
        self.site = site
        self.key = key
        self.attempt = attempt
        super().__init__(f"injected fault at {site} (chart={key!r}, attempt={attempt})")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a site, the charts it hits, and how it fails.

    ``charts`` is a collection of ``"dataset/name"`` keys (``None`` = every
    chart).  The spec fires while the ambient attempt number is ``<=
    attempts``, so ``attempts=1`` models a transient fault healed by one
    retry and a large ``attempts`` models a poison chart that must be
    quarantined.
    """

    site: str
    charts: tuple[str, ...] | None = None
    attempts: int = 1
    kind: str = KIND_ERROR
    hang_s: float = 30.0
    corruption: str = CORRUPT_TRUNCATE

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.corruption not in CORRUPTION_MODES:
            raise ValueError(
                f"unknown corruption mode {self.corruption!r}; expected one of {CORRUPTION_MODES}"
            )
        if self.charts is not None:
            object.__setattr__(self, "charts", tuple(self.charts))

    def matches(self, key: str | None, attempt: int) -> bool:
        """True when this spec fires for ``key`` on attempt ``attempt``."""
        if attempt > self.attempts:
            return False
        return self.charts is None or key in self.charts


class FaultPlan:
    """A deterministic, picklable set of armed :class:`FaultSpec` entries.

    The plan is pure data: whether a site fires depends only on the spec,
    the ambient chart key and the attempt number -- never on wall clock,
    randomness or mutable plan state -- so a sweep replays identically
    across serial runs and respawned process pools.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = tuple(specs)
        self._by_site: dict[str, tuple[FaultSpec, ...]] = {}
        for spec in self.specs:
            self._by_site[spec.site] = self._by_site.get(spec.site, ()) + (spec,)


#: The armed plan (process-global) and the ambient chart scope (per-thread).
_ARMED: FaultPlan | None = None
_SCOPE = threading.local()
#: Set by the evaluation pool worker entry: only there may ``kill`` faults
#: actually terminate the process.
_IN_POOL_WORKER = False


def arm(plan: FaultPlan | None) -> None:
    """Install ``plan`` as the process-wide armed plan (``None`` disarms)."""
    global _ARMED
    _ARMED = plan


def armed_plan() -> FaultPlan | None:
    """The currently armed plan, if any."""
    return _ARMED


@contextmanager
def plan_armed(plan: FaultPlan | None) -> Iterator[None]:
    """Arm ``plan`` for the duration of the block, restoring the previous plan."""
    global _ARMED
    previous = _ARMED
    _ARMED = plan
    try:
        yield
    finally:
        _ARMED = previous


@contextmanager
def fault_scope(key: str | None, attempt: int = 1) -> Iterator[None]:
    """Set the ambient chart key / attempt the fault sites key on.

    The evaluation pipeline wraps every per-chart attempt in one of these;
    outside any scope the key is ``None``, which only matches specs armed
    for *all* charts (``charts=None``).
    """
    previous = (getattr(_SCOPE, "key", None), getattr(_SCOPE, "attempt", 1))
    _SCOPE.key = key
    _SCOPE.attempt = attempt
    try:
        yield
    finally:
        _SCOPE.key, _SCOPE.attempt = previous


def current_scope() -> tuple[str | None, int]:
    """The ambient ``(chart key, attempt)`` fault sites see right now."""
    return (getattr(_SCOPE, "key", None), getattr(_SCOPE, "attempt", 1))


def mark_pool_worker() -> None:
    """Declare this process an evaluation pool worker (enables ``kill``)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def fault_point(site: str) -> None:
    """The near-zero-cost hook threaded through the pipeline's hot paths.

    Disarmed: one global load and a ``None`` check.  Armed: a dict lookup,
    then a spec match against the ambient :func:`fault_scope`.  A firing
    spec raises :class:`InjectedFault` (``error``), sleeps (``hang``), or
    terminates the worker process (``kill``; degrades to ``error`` outside
    a pool worker).  ``corrupt`` specs never fire here -- sites with a
    corruption hook query :func:`corruption_mode` instead.
    """
    plan = _ARMED
    if plan is None:
        return
    specs = plan._by_site.get(site)
    if not specs:
        return
    key = getattr(_SCOPE, "key", None)
    attempt = getattr(_SCOPE, "attempt", 1)
    for spec in specs:
        if spec.kind == KIND_CORRUPT or not spec.matches(key, attempt):
            continue
        if spec.kind == KIND_HANG:
            time.sleep(spec.hang_s)
            return
        if spec.kind == KIND_KILL and _IN_POOL_WORKER:
            os._exit(3)
        raise InjectedFault(site, key, attempt)


def corruption_mode(site: str) -> str | None:
    """The corruption mode of the first firing ``corrupt`` spec at ``site``.

    ``None`` when no corruption is requested in the ambient scope.  Queried
    by sites that own a corruption hook: the render cache corrupts its
    stored entry, then must *detect* the corruption instead of serving it;
    the result store also uses the mode to pick *how* to damage its row --
    truncation, bit-flip or schema version skew (:data:`CORRUPTION_MODES`).
    Kept separate from :func:`fault_point` so corruption is silent -- the
    failure, if any, must come from the detection logic under test.
    """
    plan = _ARMED
    if plan is None:
        return None
    specs = plan._by_site.get(site)
    if not specs:
        return None
    key, attempt = current_scope()
    for spec in specs:
        if spec.kind == KIND_CORRUPT and spec.matches(key, attempt):
            return spec.corruption
    return None
