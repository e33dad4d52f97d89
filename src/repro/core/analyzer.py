"""The hybrid misconfiguration analyzer -- the paper's core contribution.

The analyzer takes a Helm chart, renders it (static analysis), observes its
runtime behaviour with a double snapshot (runtime analysis), then evaluates
the machine-readable rules of Table 1 against the combined evidence.  The
sweep's final cluster-wide pass over all analyzed applications
(:mod:`repro.core.cluster_wide`) detects global label collisions (M4*).

Runtime observation goes through an :class:`~repro.cluster.AnalysisSession`:
cluster skeletons are pooled and recycled between charts instead of rebuilt,
and the default ``observe_mode="fast"`` derives the snapshots install-free
from the rendered objects and workload behaviours.  ``observe_mode="full"``
(plus ``pooled_clusters=False`` for a throw-away cluster per chart) keeps
the original install-and-scan path as the reference implementation; the
differential conformance suite proves all modes produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .. import faults
from ..cluster import AnalysisSession, BehaviorRegistry, OBSERVE_FAST
from ..helm import Chart, RenderedChart, render_chart
from ..k8s import Inventory, KubernetesObject
from ..probe import RuntimeObservation
from .context import AnalysisContext
from .findings import AnalysisReport
from .rules import RuleRegistry, default_rules, evaluate_fused

#: Analysis modes, used by the ablation experiments.
MODE_STATIC = "static"
MODE_RUNTIME = "runtime"
MODE_HYBRID = "hybrid"

#: The pipeline stages a per-chart analysis passes through, in order.  The
#: fault-isolation layer attributes every failure to exactly one of these.
STAGE_RENDER = "render"
STAGE_OBSERVE = "observe"
STAGE_RULES = "rules"
ANALYSIS_STAGES = (STAGE_RENDER, STAGE_OBSERVE, STAGE_RULES)


class AnalysisStageError(Exception):
    """A per-chart analysis stage failed; wraps the original exception.

    Raised only when the caller opts in (``analyze_chart(...,
    stage_errors=True)``): the evaluation pipeline uses the ``stage``
    attribute to attribute a failure record to render/observe/rules without
    guessing from tracebacks.  Constructed as ``AnalysisStageError(stage,
    original)`` so the default ``Exception`` pickling (via ``args``) moves
    it across process-pool boundaries intact.
    """

    def __init__(self, stage: str, original: BaseException) -> None:
        super().__init__(stage, original)
        self.stage = stage
        self.original = original

    def __str__(self) -> str:
        return f"{self.stage} stage failed: {self.original!r}"


@dataclass
class AnalyzerSettings:
    """Tunable behaviour of the analyzer."""

    mode: str = MODE_HYBRID
    #: Take two runtime snapshots across a restart (needed for M2).
    double_snapshot: bool = True
    #: Subtract the node's own ports from hostNetwork pods (avoids M1 false positives).
    host_port_filtering: bool = True
    #: Number of worker nodes in the analysis cluster / substrate.
    worker_count: int = 3
    #: Seed for the analysis cluster (ephemeral port allocation).
    seed: int = 2025
    #: ``"fast"`` = install-free observation substrate; ``"full"`` = install
    #: into a cluster and scan (the reference path).
    observe_mode: str = OBSERVE_FAST
    #: Recycle one cluster skeleton across charts (``observe_mode="full"``);
    #: ``False`` rebuilds a throw-away cluster per chart, as the seed did.
    pooled_clusters: bool = True
    #: Evaluate the rule set as one fused pass over indexed per-chart
    #: lookups (the default); ``False`` pins the seed shape -- one rule at a
    #: time, per-call linear scans -- kept as the reference implementation
    #: the rule-engine differential suite compares against.
    compiled_rules: bool = True


class MisconfigurationAnalyzer:
    """Analyzes Helm charts / Kubernetes objects for network misconfigurations."""

    def __init__(
        self,
        rules: RuleRegistry | None = None,
        settings: AnalyzerSettings | None = None,
        session: AnalysisSession | None = None,
    ) -> None:
        self.rules = rules or default_rules()
        self.settings = settings or AnalyzerSettings()
        self.session = session or AnalysisSession(
            name="analysis",
            worker_count=self.settings.worker_count,
            seed=self.settings.seed,
            observe_mode=self.settings.observe_mode,
            pooled=self.settings.pooled_clusters,
        )

    # Chart-level analysis ---------------------------------------------------------
    def analyze_chart(
        self,
        chart: Chart,
        overrides: Mapping | None = None,
        behaviors: BehaviorRegistry | None = None,
        application: str | None = None,
        dataset: str = "",
        policies_available_but_disabled: bool | None = None,
        rendered: RenderedChart | None = None,
        inventory: Inventory | None = None,
        stage_errors: bool = False,
    ) -> AnalysisReport:
        """Render a chart, observe it at runtime, and evaluate every rule.

        Callers that already rendered the chart (the evaluation pipeline
        needs the rendered objects for its inventory anyway) can pass
        ``rendered`` to skip the second render -- even the structured
        dict-native render dominates the full-catalogue wall time -- and
        ``inventory`` to share one indexed inventory over those objects
        between this analysis and their own passes.  The provided render
        must use the same release name and overrides this method would
        apply.

        ``stage_errors=True`` wraps any exception escaping a pipeline stage
        in :class:`AnalysisStageError` tagged with the stage name
        (:data:`ANALYSIS_STAGES`), for callers that attribute failures per
        stage; the default leaves exception types untouched, preserving the
        historical raise-through semantics.
        """
        if rendered is None:
            rendered = self._run_stage(
                STAGE_RENDER,
                stage_errors,
                lambda: render_chart(
                    chart, release_name=application or chart.name, overrides=overrides
                ),
            )
        detected_disabled = (
            policies_available_but_disabled
            if policies_available_but_disabled is not None
            else self._chart_defines_disabled_policies(chart, rendered)
        )
        observation = None
        if self.settings.mode in (MODE_RUNTIME, MODE_HYBRID):
            observation = self._run_stage(
                STAGE_OBSERVE, stage_errors, lambda: self._observe(rendered, behaviors)
            )
        return self._run_stage(
            STAGE_RULES,
            stage_errors,
            lambda: self.analyze_rendered(
                rendered,
                observation=observation,
                dataset=dataset,
                policies_available_but_disabled=detected_disabled,
                inventory=inventory,
            ),
        )

    @staticmethod
    def _run_stage(stage: str, stage_errors: bool, thunk: Callable):
        """Run one pipeline stage, wrapping failures when asked to."""
        if not stage_errors:
            return thunk()
        try:
            return thunk()
        except AnalysisStageError:
            raise
        except Exception as exc:
            raise AnalysisStageError(stage, exc) from exc

    def analyze_rendered(
        self,
        rendered: RenderedChart,
        observation: RuntimeObservation | None = None,
        dataset: str = "",
        policies_available_but_disabled: bool = False,
        inventory: Inventory | None = None,
    ) -> AnalysisReport:
        """Evaluate the rules against an already-rendered chart.

        ``inventory`` lets callers that keep their own :class:`Inventory`
        over the same objects (the evaluation pipeline feeds it to the
        cluster-wide pass) share one instance, so its lazy indexes and
        compute-unit memos are built once for both passes.
        """
        return self.analyze_objects(
            rendered.objects,
            application=rendered.release.name,
            observation=observation,
            dataset=dataset,
            policies_available_but_disabled=policies_available_but_disabled,
            namespace=rendered.release.namespace,
            inventory=inventory,
        )

    def analyze_objects(
        self,
        objects: Iterable[KubernetesObject],
        application: str,
        observation: RuntimeObservation | None = None,
        dataset: str = "",
        policies_available_but_disabled: bool = False,
        namespace: str = "default",
        inventory: Inventory | None = None,
    ) -> AnalysisReport:
        """Evaluate the rules against a plain list of Kubernetes objects."""
        faults.fault_point(faults.RULES)
        if self.settings.mode == MODE_STATIC:
            observation = None
        compiled = self.settings.compiled_rules
        context = AnalysisContext(
            application=application,
            inventory=inventory if inventory is not None else Inventory(objects),
            observation=observation,
            network_policies_available_but_disabled=policies_available_but_disabled,
            dataset=dataset,
            namespace=namespace,
            indexed=compiled,
        )
        report = AnalysisReport(application=application, dataset=dataset)
        if compiled:
            # One fused walk over units and services; per-rule buckets are
            # concatenated in registry order, so reports match the reference
            # loop below byte for byte (proven by the differential suite).
            # One batched ``add`` keeps the dedup pass linear in findings.
            report.add(
                [
                    finding
                    for _rule, findings in evaluate_fused(self.rules, context)
                    for finding in findings
                ]
            )
        else:
            for rule in self.rules.rules_for(context):
                report.add(rule.evaluate(context))
        return report

    # Runtime observation ------------------------------------------------------------
    def _observe(
        self, rendered: RenderedChart, behaviors: BehaviorRegistry | None
    ) -> RuntimeObservation:
        """Take the double snapshot through the analysis session."""
        observation = self.session.observe(
            rendered,
            behaviors=behaviors,
            double_snapshot=self.settings.double_snapshot,
        )
        if not self.settings.host_port_filtering:
            observation.host_ports = set()
        return observation

    @staticmethod
    def _chart_defines_disabled_policies(chart: Chart, rendered: RenderedChart) -> bool:
        """True when the chart has NetworkPolicy templates that did not render."""
        if rendered.objects_of_kind("NetworkPolicy"):
            return False
        sources = [template.source for template in chart.templates]
        for subchart in chart.subcharts.values():
            sources.extend(template.source for template in subchart.templates)
        return any("kind: NetworkPolicy" in source for source in sources)

