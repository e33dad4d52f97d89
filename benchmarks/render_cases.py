"""Render-pipeline benchmark cases: compile cache, chart cache, all-pairs.

Used by ``run.py`` to record the PR-2 and PR-4 trajectory into
``BENCH_connectivity.json``:

* ``template_compile`` -- lex/parse/compile a chart's template sources cold
  vs fetching the compiled closures from the content-keyed cache;
* ``chart_render`` -- full chart render (template evaluation + document
  assembly + typed-object construction) cold vs a warm hit on the shared
  render cache (sealed objects by reference);
* ``catalog_render`` -- the cold catalogue render slice (every chart of the
  290-chart catalogue rendered once, bypassing the render cache): classic
  text pipeline vs the dict-native structured pipeline (PR 4);
* ``all_pairs`` -- the whole-fleet reachability surface, class-grouped
  (one computation per source equivalence class) vs per-source
  ``endpoints_from`` on the same warmed matrix.
"""

from __future__ import annotations

import time

from connectivity_cases import build_fleet, median_ns

from repro.datasets import build_application, build_catalog
from repro.datasets.spec import InjectionPlan
from repro.helm import (
    clear_template_cache,
    compile_source,
    render_chart,
    shared_render_cache,
)


def _bench_app():
    """A representative catalogue application (several misconfigurations)."""
    return build_application(
        name="bench-app",
        organization="Bench Org",
        plan=InjectionPlan(m1=3, m2=1, m3=2, m4a=1, m5a=1, m6=True),
        archetype="microservices",
        dataset="Bench",
    )


def bench_template_compile(repeats: int = 5) -> dict[str, float]:
    """Cold template compilation vs content-keyed cache lookups."""
    templates = [(t.name, t.source) for t in _bench_app().chart.templates]

    def run_cold():
        clear_template_cache()
        for name, source in templates:
            compile_source(source, name)

    def run_cached():
        for name, source in templates:
            compile_source(source, name)

    cold = median_ns(run_cold, repeats) / len(templates)
    # run_cold clears at the start of each repeat and compiles after, so the
    # cache is warm here and the cached case measures pure lookups.
    cached = median_ns(run_cached, repeats) / len(templates)
    return {"template_compile/cold": cold, "template_compile/cached": cached}


def bench_chart_render(repeats: int = 5) -> dict[str, float]:
    """Full chart render: cold pipeline vs a warm shared render-cache hit."""
    chart = _bench_app().chart
    fingerprint = chart.fingerprint()

    def run_cold():
        clear_template_cache()
        shared_render_cache().clear()
        render_chart(chart, fingerprint=fingerprint)

    def run_warm():
        render_chart(chart, fingerprint=fingerprint)

    run_warm()  # populate both caches once
    warm = median_ns(run_warm, repeats)
    cold = median_ns(run_cold, repeats)
    run_warm()  # leave the shared cache warm for later suites
    return {"chart_render/cold": cold, "chart_render/warm": warm}


def bench_catalog_render(repeats: int = 3, sample: int | None = None) -> dict[str, float]:
    """The cold catalogue render slice: text pipeline vs structured pipeline.

    Renders every catalogue chart once per repeat with the render cache
    bypassed (the compile cache stays warm -- in a real sweep the handful of
    shared template sources compile once).  This is the slice that dominated
    ``evaluation/current_s`` after PR 3; the structured path skips the
    ``toYaml`` dumps and most of the document parse.  Reported as ns per
    chart; ``run.py`` derives the ``catalog_render`` speedup from the ratio.
    """
    applications = build_catalog()
    if sample is not None:
        applications = applications[:sample]
    charts = [app.chart for app in applications]
    for chart in charts:  # warm the compile cache for both cases
        render_chart(chart, cached=False, structured=False)

    def run_path(structured: bool) -> float:
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            for chart in charts:
                render_chart(chart, cached=False, structured=structured)
            timings.append((time.perf_counter() - start) * 1e9)
        timings.sort()
        return timings[len(timings) // 2] / len(charts)

    return {
        "catalog_render/charts": float(len(charts)),
        "catalog_render/text": run_path(False),
        "catalog_render/structured": run_path(True),
    }


def bench_all_pairs(pod_count: int, repeats: int = 5) -> dict[str, float]:
    """Class-grouped all-pairs vs the PR-1 per-source enumeration.

    Both run on the same matrix with a warm decision memo; the per-source
    case is the pre-grouping implementation (scan every destination for
    every source), the grouped case answers from memoized class surfaces.
    """
    fleet = build_fleet(pod_count)
    network = fleet.compiled_network()
    matrix = network.reachability_matrix(fleet.policies, fleet.pods, fleet.bindings)
    matrix.all_pairs()  # warm the shared decision memo for both cases

    def run_per_source():
        for source in matrix.pods:
            matrix.scan_endpoints(source)

    def run_grouped():
        # Clear the surface memo so every repeat re-derives each class's
        # surface (the decision memo stays warm, matching the other case).
        matrix._class_surfaces.clear()
        matrix.all_pairs()

    return {
        "all_pairs/per_source": median_ns(run_per_source, repeats) / pod_count,
        "all_pairs/grouped": median_ns(run_grouped, repeats) / pod_count,
    }


def run_render_suite(
    repeats: int = 5, fleet_sizes=(240, 1000), catalog_sample: int | None = None
) -> dict[str, float]:
    """All render-pipeline cases, as {case: ns_per_op}."""
    results: dict[str, float] = {}
    results.update(bench_template_compile(repeats))
    results.update(bench_chart_render(repeats))
    results.update(bench_catalog_render(max(repeats // 2, 1), sample=catalog_sample))
    for pod_count in fleet_sizes:
        for case, value in bench_all_pairs(pod_count, repeats).items():
            results[f"{case}/pods={pod_count}"] = value
    return results
