"""Benchmark cases for the analysis pass (PR 5).

Measures the two slices the indexed-inventory/compiled-rules work attacks:

* ``rules/*`` -- the rule-evaluation + inventory-construction slice in
  isolation: charts pre-rendered (warm cache) and pre-observed, then every
  chart's report recomputed through

  - ``rules/reference`` -- the seed shape (``compiled_rules=False``): one
    rule at a time, per-call linear scans over the inventory and snapshots;
  - ``rules/compiled`` -- the fused single-pass engine over the indexed
    context and frozen inventory indexes (the default).

* ``warm_inventory/shared`` -- the cost of a *warm* render-cache hit,
  fingerprint shipped (the evaluation pipeline's shape): hits return the
  interned sealed objects behind fresh top-level containers, skipping
  ``objects_from_dicts``, namespace defaulting and validation entirely.

All numbers are ns per chart (best of ``repeats`` sweeps).
"""

from __future__ import annotations

import time


def run_analysis_suite(sample: int | None = None, repeats: int = 3) -> dict[str, float]:
    """Time the analysis slices over a catalogue (sample)."""
    from repro.core import AnalyzerSettings, MisconfigurationAnalyzer
    from repro.datasets import build_catalog
    from repro.helm import shared_render_cache

    applications = build_catalog()
    if sample is not None:
        applications = applications[:sample]
    charts = float(len(applications))

    cache = shared_render_cache()
    rendered = [
        cache.render(app.chart, fingerprint=app.fingerprint()) for app in applications
    ]
    observer = MisconfigurationAnalyzer()
    observations = [
        observer.session.observe(chart, app.behaviors)
        for app, chart in zip(applications, rendered)
    ]

    def best_of(sweep) -> float:
        timings = []
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            sweep()
            timings.append(time.perf_counter() - start)
        return min(timings)

    def rules_sweep(compiled: bool):
        analyzer = MisconfigurationAnalyzer(
            settings=AnalyzerSettings(compiled_rules=compiled)
        )

        def sweep() -> None:
            for app, chart, observation in zip(applications, rendered, observations):
                analyzer.analyze_rendered(chart, observation=observation, dataset=app.dataset)

        return sweep

    reference_s = best_of(rules_sweep(compiled=False))
    compiled_s = best_of(rules_sweep(compiled=True))

    # Warm-hit cost: the cache was warmed above and fingerprints are
    # shipped, so the sweep measures only the per-hit materialization.
    fingerprints = [app.fingerprint() for app in applications]

    def warm_sweep() -> None:
        for app, fingerprint in zip(applications, fingerprints):
            cache.render(app.chart, fingerprint=fingerprint)

    warm_shared_s = best_of(warm_sweep)

    results = {
        "charts": charts,
        "rules/reference": round(reference_s / charts * 1e9, 1),
        "rules/compiled": round(compiled_s / charts * 1e9, 1),
        "warm_inventory/shared": round(warm_shared_s / charts * 1e9, 1),
    }
    if results["rules/compiled"]:
        results["rules/speedup"] = round(
            results["rules/reference"] / results["rules/compiled"], 2
        )
    return results
