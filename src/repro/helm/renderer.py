"""Rendering a Helm chart into Kubernetes objects.

The renderer mirrors how ``helm template`` works:

1. merge the chart's default values with user overrides;
2. build the template context (``.Values``, ``.Release``, ``.Chart``,
   ``.Capabilities``);
3. register helper templates (``_helpers.tpl``) so ``include`` works;
4. render every non-helper template into manifest documents;
5. recurse into enabled dependencies, scoping ``.Values`` to the subchart key
   and honouring ``condition:`` flags and ``global`` values.

Step 4 comes in two flavours.  The classic **text path** (:meth:`
HelmRenderer.render`) joins each template's output into a YAML string and
re-parses it with ``yaml_load_all`` -- the reference implementation.  The
**structured path** (:meth:`HelmRenderer.render_structured`, the default
behind :func:`render_chart`) keeps rendered documents as Python dicts end to
end: compiled templates emit native values for ``toYaml`` pipelines and
compile-time document splits, and only the genuinely free-form text
segments are string-assembled and parsed (see :mod:`repro.helm.structured`).
Both paths produce dict-identical ``documents``/``objects``; they differ
only in ``RenderedChart.sources`` (the structured path records the skeleton
text it actually assembled, with structured values shown as placeholders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from ..k8s import Inventory, KubernetesObject, objects_from_dicts
from ..k8s.yamlio import pyyaml, yaml_load_all
from .chart import Chart
from .errors import RenderError, TemplateError
from .structured import assemble_documents
from .template import TemplateEngine
from .values import deep_merge, get_path, in_key_order, merged_view, sorted_tree


@dataclass
class ReleaseInfo:
    """The Helm release identity injected into templates as ``.Release``."""

    name: str
    namespace: str = "default"
    revision: int = 1
    is_install: bool = True
    service: str = "Helm"

    def to_context(self) -> dict[str, Any]:
        """The ``.Release`` mapping templates see."""
        return {
            "Name": self.name,
            "Namespace": self.namespace,
            "Revision": self.revision,
            "IsInstall": self.is_install,
            "IsUpgrade": not self.is_install,
            "Service": self.service,
        }


@dataclass
class RenderedChart:
    """The output of rendering a chart: manifests plus typed objects.

    ``documents`` and ``objects`` are identical whichever render path
    produced them.  ``sources`` maps each template's qualified name to the
    text that was assembled for it: the full rendered manifest on the text
    path, the skeleton (structured values as ``__repro_frag_N__``
    placeholders) on the structured path.
    """

    chart: Chart
    release: ReleaseInfo
    values: dict[str, Any]
    documents: list[dict] = field(default_factory=list)
    objects: list[KubernetesObject] = field(default_factory=list)
    sources: dict[str, str] = field(default_factory=dict)
    #: Content fingerprint of the full render identity (chart fingerprint +
    #: release + override fingerprint + render path), set by the render cache.
    #: ``None`` for uncached renders; consumers that key on render content
    #: (the observation memo) skip memoization when it is absent.
    render_fingerprint: str | None = field(default=None, compare=False)

    def inventory(self) -> Inventory:
        """The rendered objects wrapped as a queryable :class:`Inventory`."""
        return Inventory(self.objects)

    def objects_of_kind(self, kind: str) -> list[KubernetesObject]:
        """Every rendered object of one Kubernetes ``kind``."""
        return [obj for obj in self.objects if obj.kind == kind]


class HelmRenderer:
    """Renders charts (and their dependency trees) into Kubernetes objects."""

    def __init__(self) -> None:
        self._capabilities = {
            "KubeVersion": {"Version": "v1.25.0", "Major": "1", "Minor": "25"},
            "APIVersions": ["v1", "apps/v1", "networking.k8s.io/v1", "batch/v1"],
        }

    def render(
        self,
        chart: Chart,
        release: ReleaseInfo | None = None,
        overrides: Mapping[str, Any] | None = None,
    ) -> RenderedChart:
        """Render ``chart`` via the text path (the reference implementation)."""
        return self._render(chart, release, overrides, structured=False)

    def render_structured(
        self,
        chart: Chart,
        release: ReleaseInfo | None = None,
        overrides: Mapping[str, Any] | None = None,
        interned: bool = False,
    ) -> RenderedChart:
        """Render ``chart`` dict-natively: no YAML text round trip.

        Produces ``documents``/``objects`` dict-identical to :meth:`render`
        (the differential suite proves it across the whole catalogue) while
        skipping the ``toYaml`` dumps and most of the document parse.
        ``interned=True`` builds the typed objects through the shared intern
        table (sealed, structurally shared across identical documents); the
        default constructs fresh mutable objects.
        """
        return self._render(chart, release, overrides, structured=True, interned=interned)

    # Internal ----------------------------------------------------------------
    def _render(
        self,
        chart: Chart,
        release: ReleaseInfo | None,
        overrides: Mapping[str, Any] | None,
        structured: bool,
        interned: bool = False,
    ) -> RenderedChart:
        release = release or ReleaseInfo(name=chart.name)
        # Overrides merge key-sorted, like the chart's own values.
        overrides = sorted_tree(overrides or {})
        # The interned path produces read-only results (shared objects, shared
        # cache entries), so its values merge can structurally share untouched
        # subtrees with the chart defaults instead of deep-copying them.
        if interned:
            values = merged_view(chart.values, overrides)
        else:
            values = chart.effective_values(overrides)
        documents: list[dict] = []
        sources: dict[str, str] = {}
        self._render_chart(
            chart, release, values, values, documents, sources, prefix="",
            structured=structured, shared_values=interned,
        )
        objects = objects_from_dicts(documents, interned=interned)
        return RenderedChart(
            chart=chart,
            release=release,
            values=values,
            documents=documents,
            objects=objects,
            sources=sources,
        )

    def _render_chart(
        self,
        chart: Chart,
        release: ReleaseInfo,
        values: Mapping[str, Any],
        root_values: Mapping[str, Any],
        documents: list[dict],
        sources: dict[str, str],
        prefix: str,
        structured: bool = False,
        shared_values: bool = False,
    ) -> None:
        engine = TemplateEngine()
        context = {
            "Values": dict(values),
            "Release": release.to_context(),
            "Chart": {
                "Name": chart.name,
                "Version": chart.version,
                "AppVersion": chart.metadata.app_version or chart.version,
            },
            "Capabilities": dict(self._capabilities),
            "Template": {"Name": ""},
        }
        # Helper templates first so `include` targets are available.
        for template in chart.templates:
            if template.is_helper:
                try:
                    engine.register_source(template.source, template.name)
                except TemplateError as exc:
                    raise RenderError(f"{chart.name}/{template.name}: {exc}") from exc
        for template in chart.templates:
            if template.is_helper:
                continue
            context["Template"] = {"Name": f"{chart.name}/{template.name}"}
            qualified = f"{prefix}{chart.name}/{template.name}"
            try:
                if structured:
                    fragments = engine.render_fragments(
                        template.source, context, template.name
                    )
                    # shared_values == interned render: documents are
                    # read-only by contract, so assembly may alias
                    # placeholder-free subtrees from the parse memo.
                    parsed, skeleton = assemble_documents(
                        fragments, qualified, shared=shared_values
                    )
                    sources[qualified] = skeleton
                    documents.extend(parsed)
                else:
                    rendered = engine.render(template.source, context, template.name)
                    sources[qualified] = rendered
                    documents.extend(self._parse_documents(rendered, qualified))
            except TemplateError as exc:
                raise RenderError(f"{chart.name}/{template.name}: {exc}") from exc
        # Dependencies.
        for dependency in chart.dependencies:
            if dependency.condition and not get_path(root_values, dependency.condition, False):
                continue
            subchart = chart.subcharts.get(dependency.effective_name)
            if subchart is None:
                continue
            sub_values = self._subchart_values(
                subchart, values, dependency.effective_name, shared=shared_values
            )
            self._render_chart(
                subchart,
                release,
                sub_values,
                root_values,
                documents,
                sources,
                prefix=f"{prefix}{chart.name}/charts/",
                structured=structured,
                shared_values=shared_values,
            )

    @staticmethod
    def _subchart_values(
        subchart: Chart, parent_values: Mapping[str, Any], key: str, shared: bool = False
    ) -> dict[str, Any]:
        """Scope parent values to a dependency, propagating ``global``."""
        merge = merged_view if shared else deep_merge
        scoped = parent_values.get(key)
        merged = merge(subchart.values, scoped if isinstance(scoped, Mapping) else {})
        global_values = parent_values.get("global")
        if isinstance(global_values, Mapping):
            # A fresh mapping: merged_view may alias the subchart defaults,
            # and a new "global" key must take its sorted place.
            merged = in_key_order(
                {**merged, "global": merge(merged.get("global", {}), global_values)}
            )
        return merged

    @staticmethod
    def _parse_documents(rendered: str, source_name: str) -> list[dict]:
        if not rendered.strip():
            return []
        try:
            parsed = list(yaml_load_all(rendered))
        except pyyaml().YAMLError as exc:
            raise RenderError(
                f"template {source_name} produced invalid YAML: {exc}\n--- output ---\n{rendered}"
            ) from exc
        return [document for document in parsed if document]


def render_chart(
    chart: Chart,
    release_name: str | None = None,
    namespace: str = "default",
    overrides: Mapping[str, Any] | None = None,
    cached: bool = True,
    fingerprint: str | None = None,
    structured: bool = True,
) -> RenderedChart:
    """Convenience wrapper: render a chart with a default release.

    Goes through the shared :class:`RenderCache` by default -- repeated
    renders of the same chart/values pair return the memoized result's
    shared sealed objects behind fresh top-level containers (read-only by
    contract) instead of re-evaluating templates.  ``cached=False`` forces
    a fresh, un-interned render (the differential tests compare both paths);
    ``fingerprint`` skips re-hashing the chart when the caller already knows
    its content fingerprint.  ``structured=False`` pins the classic text
    render pipeline, the oracle the structured default is differentially
    tested against.  It always renders fresh and un-interned, whatever
    ``cached`` says: the render cache holds structured renders only.
    """
    release = ReleaseInfo(name=release_name or chart.name, namespace=namespace)
    if not structured:
        return HelmRenderer().render(chart, release, overrides)
    if not cached:
        return HelmRenderer().render_structured(chart, release, overrides)
    from .render_cache import shared_render_cache

    return shared_render_cache().render(chart, release, overrides, fingerprint=fingerprint)
