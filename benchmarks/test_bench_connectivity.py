"""Micro-benchmarks for the connectivity hot path (compiled policy engine).

Times ``check_ingress``, ``reachable_endpoints`` and the batched
``ReachabilityMatrix`` at three cluster sizes, comparing the pre-PR naive
evaluator (kept as the reference path) against the compiled/cached engine,
and prints the before/after throughput table.  ``benchmarks/run.py`` runs
the same cases standalone and records them in ``BENCH_connectivity.json``.
"""

from __future__ import annotations

import pytest
from bench_harness import run_once
from connectivity_cases import (
    bench_matrix_sources,
    build_fleet,
    format_table,
    run_large_size,
    run_size,
)

#: tens / hundreds / a thousand pods, as in the ISSUE acceptance criteria.
FLEET_SIZES = (30, 240, 1000)

#: Per large fleet size, the bitset engine's ``matrix_sources`` cost may be
#: at most this multiple of the naive scan's at 1000 pods, measured in the
#: same run.  Each is the committed record's grouped(N)/naive(1000) ratio
#: for the per-object walk the engine replaced, so the engine must never
#: cost more than that walk did; the committed compiled(N)/naive(1000)
#: ratios sit 4.5x (10k) and 4.0x (50k) under them.
LARGE_FLEET_LIMITS = {10_000: 0.460, 50_000: 3.013}


def test_connectivity_engine_throughput(benchmark):
    per_size = {}
    for pod_count in FLEET_SIZES[:-1]:
        per_size[pod_count] = run_size(pod_count, repeats=3)
    # The headline case runs under the benchmark timer: the full cached
    # matrix sweep (compile + all queries) at the thousand-pod size.
    per_size[FLEET_SIZES[-1]] = run_once(benchmark, run_size, FLEET_SIZES[-1], repeats=3)

    print("\n" + "=" * 78)
    print("Connectivity engine - naive (pre-PR) vs compiled/cached, ns per operation")
    print("=" * 78)
    print(format_table(per_size))

    for pod_count, results in per_size.items():
        for case in ("check_ingress", "reachable_endpoints", "matrix_sources"):
            naive = results[f"{case}/naive"]
            compiled = results[f"{case}/compiled"]
            # The compiled engine must never lose to the naive scan, and at
            # the thousand-pod size the batched paths must win big (the
            # recorded target in BENCH_connectivity.json is >= 5x; assert a
            # conservative floor so timing noise cannot flake the suite).
            assert compiled <= naive * 1.1, f"{case} slower than naive at {pod_count} pods"
            if pod_count == FLEET_SIZES[-1] and case != "check_ingress":
                assert naive / compiled >= 2.5, (
                    f"{case} speedup collapsed at {pod_count} pods: "
                    f"{naive / compiled:.1f}x"
                )


@pytest.mark.slow
@pytest.mark.parametrize("pod_count", sorted(LARGE_FLEET_LIMITS))
def test_large_fleet_vectorized_surface(pod_count):
    """10k/50k-pod fleets: the bitset engine must stay under the grouped walk.

    Slow-marked: the naive arm at 1000 pods takes seconds.  The same sizes
    are recorded in ``BENCH_connectivity.json`` by ``run.py --full``.
    """
    naive = bench_matrix_sources(build_fleet(1000), repeats=1)["matrix_sources/naive"]
    compiled = run_large_size(pod_count, repeats=1)["matrix_sources/compiled"]
    limit = LARGE_FLEET_LIMITS[pod_count] * naive
    assert compiled <= limit, (
        f"bitset engine past the grouped walk at {pod_count} pods: "
        f"{compiled:,.0f} vs limit {limit:,.0f} ns/src "
        f"({LARGE_FLEET_LIMITS[pod_count]} x naive at 1000 pods)"
    )


@pytest.mark.slow
def test_large_fleet_vectorized_matches_grouped():
    """Byte-identical surfaces at the 10k-pod size, sampled sources.

    The reference is the per-attempt scan on its own matrix over the
    compiled policy index: the naive scan would take minutes here, and the
    index's decisions are proven equal to it by the property suite.
    """
    fleet = build_fleet(10_000)
    compiled = fleet.compiled_network()
    index = fleet.index()
    scan = compiled.reachability_matrix(index, fleet.pods, fleet.bindings)
    vector = compiled.reachability_matrix(index, fleet.pods, fleet.bindings)
    for source in fleet.pods[:: len(fleet.pods) // 8] + [fleet.attacker]:
        assert vector.endpoints_from(source) == scan.scan_endpoints(source)


def test_matrix_matches_naive_surface_on_bench_fleet():
    """The bench fleet itself double-checks compiled == naive results."""
    fleet = build_fleet(240)
    naive = fleet.naive_network()
    compiled = fleet.compiled_network()
    matrix = compiled.reachability_matrix(fleet.policies, fleet.pods, fleet.bindings)
    for source in fleet.pods[::40] + [fleet.attacker]:
        expected = naive.reachable_endpoints(
            fleet.policies, source, fleet.pods, fleet.bindings
        )
        assert matrix.endpoints_from(source) == expected
        assert (
            compiled.reachable_endpoints(fleet.policies, source, fleet.pods, fleet.bindings)
            == expected
        )
