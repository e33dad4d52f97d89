"""The bench helper's one timing loop, and the cold start of an end-to-end run.

:func:`sample_ns` is every timing loop of ``run.py`` and the case modules:
it returns the raw samples and each caller keeps its own statistic -- the
connectivity cases and the evaluation sweep take medians, the end-to-end
pairs and the delta rounds minima.  The pytest-benchmark suites
(``test_bench_*.py``) time through pytest-benchmark instead.
"""

from __future__ import annotations

import gc
import time


def clear_render_caches() -> None:
    """Drop every render-side cache, so the next sweep is a first pass."""
    from repro.helm import clear_skeleton_parse_memo, clear_template_cache, shared_render_cache
    from repro.k8s import clear_intern_table

    clear_template_cache()
    shared_render_cache().clear()
    clear_skeleton_parse_memo()
    clear_intern_table()


def cold_start() -> None:
    """Before a cold end-to-end run: empty render caches, collector settled."""
    clear_render_caches()
    gc.collect()


def sample_ns(arms, repeats: int, *, alternate=False, before=None, pause_gc=False):
    """Time ``repeats`` rounds of ``arms``: one list of ns samples per arm.

    A round runs every arm once, in the order given, and in reverse on odd
    rounds when ``alternate`` is set, so a slow stretch of the host lands
    on both arms of a comparison rather than on whichever ran through it.
    ``before()`` runs untimed ahead of every timed run: a cold start, a
    collection, or building the input the arm consumes.  ``pause_gc``
    switches the collector off inside the timed region (the ``timeit``
    convention), so one run's allocation debt is not billed to the next.

    The engine's lazy numpy import happens here, before the first timed
    run, so no arm's first run pays for an import.  Nothing else is warmed:
    a single repeat of ``matrix_sources`` still prices the universe build.
    """
    from repro.cluster.network import _numpy

    _numpy()
    samples: list[list[int]] = [[] for _ in arms]
    for round_index in range(max(repeats, 1)):
        order = range(len(arms))
        if alternate and round_index % 2:
            order = reversed(order)
        for index in order:
            if before is not None:
                before()
            paused = pause_gc and gc.isenabled()
            if paused:
                gc.disable()
            try:
                start = time.perf_counter_ns()
                arms[index]()
                samples[index].append(time.perf_counter_ns() - start)
            finally:
                if paused:
                    gc.enable()
    return samples
