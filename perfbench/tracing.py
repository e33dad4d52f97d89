"""Spans and counters for the traced benchmark run.

The tracer wraps each layer's public entry point *where its caller looks it
up* (a module global or a class attribute), so the program under test is
measured without editing it.  Wrappers exist only between :meth:`install`
and :meth:`restore`; an untraced run never sees them.

A span is ``[name, start, end, parent]`` kept in memory; :meth:`write` dumps
them when the run ends.  A layer's self time is its span time minus the time
its child spans cover, so nested layers (a store write inside an
observation, an fsync inside a store write) are never billed twice.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter
from pathlib import Path

#: Span names of the wrapped layers, in report order.
LAYERS = (
    "helm.render",
    "k8s.inventory",
    "session.observe",
    "core.rules",
    "core.cluster_wide",
    "watch.scan",
    "delta.classify",
    "store.write",
    "store.read",
    "store.fsync",
    "store.journal_append",
    "cluster.lease",
    "cluster.install",
    "network.matrix_build",
    "network.connect",
)

#: Prefix of the per-operation root spans the workloads open.
ROOT_PREFIX = "op."


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Counter sources met during the current operation:
        #: id -> (object, stats function, baseline counters).
        self._sources: dict[int, tuple[object, object, dict]] = {}
        self._source_totals: dict[type, Counter] = {}

    # Spans -------------------------------------------------------------------
    def enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON document (written once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent")
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)

    # Counters ----------------------------------------------------------------
    def note_source(self, obj, stats) -> None:
        """Remember a per-instance counter source at first sight.

        ``stats(obj)`` returns monotonic counters; :meth:`settle_sources`
        folds how far they moved into per-type totals.
        """
        if id(obj) not in self._sources:
            self._sources[id(obj)] = (obj, stats, dict(stats(obj)))

    def settle_sources(self) -> None:
        """Fold the sources' counter movement into the totals and forget the
        objects, so tracing keeps no analyzer session or store alive."""
        for obj, stats, baseline in self._sources.values():
            totals = self._source_totals.setdefault(type(obj), Counter())
            for key, value in stats(obj).items():
                totals[key] += value - baseline.get(key, 0)
        self._sources.clear()

    def source_totals(self, kind: type) -> Counter:
        return self._source_totals.get(kind, Counter())

    # Wrappers ----------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, source=None) -> None:
        """Open span ``name`` around every call of ``owner.attribute``.

        ``source`` (a stats function) registers the bound instance as a
        counter source; only meaningful for methods.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            if source is not None:
                tracer.note_source(args[0], source)
            index = tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(index)

        traced.__wrapped__ = original
        self._patch(owner, attribute, traced)

    def wrap_context(self, owner, attribute: str, name: str) -> None:
        """Span the enter and the exit of a context-manager method.

        The body of the ``with`` block belongs to the caller, so it is not
        billed to this layer.
        """
        original = getattr(owner, attribute)
        tracer = self

        class _Traced:
            def __init__(self, manager) -> None:
                self.manager = manager

            def __enter__(self):
                index = tracer.enter(name)
                try:
                    return self.manager.__enter__()
                finally:
                    tracer.exit(index)

            def __exit__(self, *exc_info):
                index = tracer.enter(name)
                try:
                    return self.manager.__exit__(*exc_info)
                finally:
                    tracer.exit(index)

        def traced(*args, **kwargs):
            return _Traced(original(*args, **kwargs))

        self._patch(owner, attribute, traced)

    def wrap_module_function(self, module, attribute: str, function: str, name: str) -> None:
        """Span ``module.attribute.function`` as ``module`` alone sees it.

        ``module.attribute`` (say ``repro.store.os``) is replaced by a proxy
        that forwards everything else, so other modules keep the real one.
        """
        real = getattr(module, attribute)
        proxy = types.ModuleType(f"traced_{real.__name__}")
        proxy.__getattr__ = lambda key: getattr(real, key)
        setattr(proxy, function, getattr(real, function))
        self.wrap(proxy, function, name)
        self._patch(module, attribute, proxy)

    def install(self) -> None:
        """Wrap every layer entry point this benchmark reports on."""
        import repro.store
        from repro.cluster import AnalysisSession, Cluster, ReachabilityMatrix
        from repro.cluster.network import ClusterNetwork
        from repro.core import MisconfigurationAnalyzer
        from repro.experiments import delta, evaluation, netpol_impact

        for module in (evaluation, netpol_impact):
            self.wrap(module, "render_chart", "helm.render")
        self.wrap(evaluation, "Inventory", "k8s.inventory")
        self.wrap(AnalysisSession, "observe", "session.observe",
                  source=AnalysisSession.memo_stats)
        self.wrap(MisconfigurationAnalyzer, "analyze_rendered", "core.rules")
        self.wrap(evaluation, "global_collision_findings", "core.cluster_wide")
        self.wrap(delta, "scan_chart_directory", "watch.scan")
        self.wrap(delta.DeltaEvaluator, "_plan_with_index", "delta.classify")
        store_stats = repro.store.ResultStore.stats
        self.wrap(repro.store.ResultStore, "write", "store.write", source=store_stats)
        self.wrap(repro.store.ResultStore, "read", "store.read", source=store_stats)
        self.wrap(repro.store.SweepJournal, "record", "store.journal_append")
        self.wrap_module_function(repro.store, "os", "fsync", "store.fsync")
        self.wrap_context(AnalysisSession, "lease", "cluster.lease")
        self.wrap(Cluster, "install", "cluster.install")
        self.wrap(ClusterNetwork, "reachability_matrix", "network.matrix_build")
        self.wrap(ReachabilityMatrix, "connect", "network.connect")
        self.wrap(ReachabilityMatrix, "connect_via_service", "network.connect")

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def trace_path(root: Path, workload: str, seed: int) -> Path:
    """Where a traced run writes its spans (inside the checkout)."""
    return root / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"
