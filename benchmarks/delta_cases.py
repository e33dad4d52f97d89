"""Benchmark cases for the incremental delta evaluator (PR 9).

Measures what watch mode actually buys: how cheap a delta round is
relative to the from-scratch sweep it replaces.

* ``delta/full_sweep_s`` -- a cold from-scratch sweep over the catalogue,
  the reference denominator;
* ``delta/noop_s`` -- a delta round over a byte-identical *rebuilt*
  catalogue (fresh objects, equal content) against a warm evaluator: pure
  fingerprint classification plus the cluster-wide re-pass, every chart
  reused.  This is the steady-state cost of a watch round where nothing
  changed, and the headline ``delta/noop_ratio`` must stay ≤ 5% of the
  full sweep (``DELTA_NOOP_RATIO_LIMIT`` in ``run.py --check``);
* ``delta/edit4_s`` -- a delta round after salting four charts' values:
  classification plus exactly four recomputes, demonstrating O(changed)
  rather than O(catalogue) cost.

The rebuilt/salted catalogues are constructed *outside* the timed region;
the timer bills only what the evaluator itself does -- including
re-hashing every chart's fingerprint, which is honest because a real
watch round rescans its inputs every time.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools

from timing import clear_render_caches, sample_ns

#: Charts salted for the O(changed) case (clamped to the sample size).
EDIT_COUNT = 4


def _rebuilt(applications):
    """Byte-identical fresh objects: every cached fingerprint is discarded."""
    from repro.helm.chart import ChartTemplate

    return [
        dataclasses.replace(
            app,
            chart=dataclasses.replace(
                app.chart,
                values=copy.deepcopy(app.chart.values),
                templates=[
                    ChartTemplate(t.name, t.source) for t in app.chart.templates
                ],
            ),
        )
        for app in applications
    ]


def _salted(applications, count: int, salt: str):
    """The catalogue with ``count`` charts' values salted (they re-render)."""
    mutated = _rebuilt(applications)
    for index in range(min(count, len(mutated))):
        app = mutated[index]
        values = dict(app.chart.values)
        values["benchDeltaSalt"] = salt
        mutated[index] = dataclasses.replace(
            app, chart=dataclasses.replace(app.chart, values=values)
        )
    return mutated


def run_delta_suite(sample: int | None = None, repeats: int = 3) -> dict[str, float]:
    """Time delta rounds against the from-scratch sweep, seconds per round."""
    from repro.datasets import build_catalog
    from repro.experiments import DeltaEvaluator, run_full_evaluation

    applications = build_catalog()
    if sample is not None:
        applications = applications[:sample]
    edits = min(EDIT_COUNT, len(applications))

    (full,) = sample_ns(
        [lambda: run_full_evaluation(applications=applications)],
        repeats,
        before=clear_render_caches,
    )

    evaluator = DeltaEvaluator()
    evaluator.evaluate(applications)

    # Each timed round evaluates a catalogue built untimed just before it.
    pending: list = []

    def no_op_round() -> None:
        recomputed = evaluator.evaluate(pending.pop()).delta_stats["recomputed"]
        if recomputed:
            raise RuntimeError(
                f"no-op delta recomputed {recomputed} charts -- the rebuild is "
                "not byte-identical and the timing is meaningless"
            )

    (noop,) = sample_ns(
        [no_op_round], repeats, before=lambda: pending.append(_rebuilt(applications))
    )

    # A fresh salt per round: the previous round's salted charts move
    # again, so every timed round recomputes exactly ``edits`` charts.
    salts = itertools.count()
    (edit,) = sample_ns(
        [lambda: evaluator.evaluate(pending.pop())],
        repeats,
        before=lambda: pending.append(
            _salted(applications, edits, f"round-{next(salts)}")
        ),
    )
    full, noop, edit = (min(samples) / 1e9 for samples in (full, noop, edit))

    results = {
        "charts": float(len(applications)),
        "delta/full_sweep_s": round(full, 4),
        "delta/noop_s": round(noop, 4),
        "delta/edit4_s": round(edit, 4),
    }
    if full:
        results["delta/noop_ratio"] = round(noop / full, 4)
        results["delta/edit4_ratio"] = round(edit / full, 4)
    return results
