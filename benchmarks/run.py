#!/usr/bin/env python
"""Bench helper: time the gated cases, record the trajectory, run the gate.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run.py [--full] [--smoke] [--check] [--sample N] [--repeats N] [--output F]

Runs the same connectivity cases as ``benchmarks/test_bench_connectivity.py``
-- naive (pre-PR) vs compiled/cached engine for ``check_ingress``,
``reachable_endpoints`` and the ``ReachabilityMatrix`` at three fleet sizes
-- then the end-to-end Figure 4b sweep (naive vs compiled), the default
catalogue evaluation, the armed-but-idle fault-hook pair, the durable
sweep (store off, cold, warm) and the delta suite (no-op and edit-4
rounds vs the from-scratch sweep) over a catalogue sample (the whole
catalogue with ``--full``), and writes the results to
``BENCH_connectivity.json``.  Every timing loop is
:func:`timing.sample_ns`; the end-to-end sweeps start from *cold* render
caches, so the recorded seconds measure a first pass over the catalogue.

``--smoke`` runs a seconds-long pass (one repeat, one fleet size, a
4-chart sample) and writes no file unless ``--output`` is given.
``--check`` runs a smoke pass and exits non-zero on regression: its
per-chart end-to-end numbers against the committed record under a 3x
band, plus the fault-hook, Figure 4b, ``matrix_sources`` and no-op delta
ratio gates (see the limits below and ``docs/benchmarks.md``).
``tests/smoke/test_bench_check.py`` runs it in tier-1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from connectivity_cases import format_table, run_large_size, run_size  # noqa: E402
from delta_cases import run_delta_suite  # noqa: E402
from timing import cold_start, sample_ns  # noqa: E402

from repro.store import atomic_write_text  # noqa: E402

FLEET_SIZES = (30, 240, 1000)
SMOKE_FLEET_SIZES = (30,)
#: Fleet sizes for the slow bitset-engine-only cases; run with ``--full``,
#: and marked ``slow`` in the pytest harness.
LARGE_FLEET_SIZES = (10_000, 50_000)


def _catalogue(sample: int | None):
    """A freshly built catalogue, cut to its first ``sample`` charts."""
    from repro.datasets import build_catalog

    applications = build_catalog()
    return applications if sample is None else applications[:sample]


def _cold_minima(arms, repeats: int, *, alternate=False, before=cold_start):
    """Each arm's fastest of ``repeats`` cold runs, in seconds."""
    samples = sample_ns(arms, repeats, alternate=alternate, before=before, pause_gc=True)
    return [min(arm) / 1e9 for arm in samples]


def bench_netpol_sweep(sample: int | None, repeats: int = 3) -> dict[str, float]:
    """End-to-end Figure 4b sweep, reference vs default path, seconds.

    The naive arm installs each chart into a fresh naive-policy cluster;
    the compiled arm deploys it install-free and probes through the
    compiled policy index (``run_netpol_impact``'s two paths).

    The arms run as cold pairs and each arm keeps its *minimum*, mirroring
    ``measure_fault_overhead``: running one arm's repeats back-to-back
    before the other's billed whatever drift the machine accumulated
    (allocator growth, cache pressure) entirely to the second arm, which is
    how the compiled path once appeared slower than the reference it
    strictly outworks.  Refinements against subtler versions of the same
    bias: two discarded warm-up pairs (cold sweeps keep settling --
    allocator pools, branch predictors, page cache -- for several runs
    beyond the first, and the transient landed on whichever arm ran
    early), and per-pair order alternation, so neither arm systematically
    occupies the quieter slot of a pair.
    """
    from repro.experiments import run_netpol_impact

    applications = _catalogue(sample)

    def sweep(compiled: bool):
        return lambda: run_netpol_impact(applications=applications, compiled=compiled)

    naive_sweep, compiled_sweep = sweep(False), sweep(True)
    _cold_minima([compiled_sweep, naive_sweep], 2)  # warm-up pairs, discarded
    naive, compiled = _cold_minima([naive_sweep, compiled_sweep], repeats, alternate=True)
    return {
        "charts": float(len(applications)),
        "netpol_impact/naive_s": round(naive, 3),
        "netpol_impact/compiled_s": round(compiled, 3),
    }


def bench_full_evaluation(sample: int | None, repeats: int = 3) -> dict[str, float]:
    """The default catalogue evaluation, median of cold runs, seconds.

    Pooled clusters, install-free observation, structured render, interned
    inventory, compiled rules.  Every run is a genuine first pass over the
    catalogue; the median only absorbs scheduler noise.  Two discarded
    cold runs go first: the process's first evaluation sweeps run ~25%
    slower at the smoke sample, and the committed record and the 3x band
    were taken with two older evaluation shapes running ahead of this one.
    """
    from repro.experiments import run_full_evaluation

    applications = _catalogue(sample)

    def sweep() -> None:
        run_full_evaluation(applications=applications)

    sample_ns([sweep], 2, before=cold_start, pause_gc=True)  # warm-up, discarded
    (current,) = sample_ns([sweep], repeats, before=cold_start, pause_gc=True)
    return {
        "charts": float(len(applications)),
        "evaluation/current_s": round(statistics.median(current) / 1e9, 3),
    }


def measure_fault_overhead(sample: int | None, rounds: int = 1) -> dict[str, float]:
    """Armed-but-idle fault hooks vs disarmed: paired cold evaluation sweeps.

    Arms a plan that targets every fault site against a chart key that does
    not exist in the catalogue, so each ``fault_point`` call runs its full
    plan-lookup-and-miss path without ever firing -- the per-sweep tax of
    keeping the robustness hooks armed.  Runs ``rounds`` disarmed/armed
    pairs and keeps the *minimum* per arm: injected noise only ever adds
    time, so the minima are the honest comparison on a busy machine.
    """
    from repro import faults
    from repro.experiments import run_full_evaluation

    applications = _catalogue(sample)
    idle_plan = faults.FaultPlan(
        *(
            faults.FaultSpec(site, charts=("bench/no-such-chart",))
            for site in faults.FAULT_SITES
        )
    )
    disarmed, armed = _cold_minima(
        [
            lambda: run_full_evaluation(applications=applications),
            lambda: run_full_evaluation(applications=applications, fault_plan=idle_plan),
        ],
        rounds,
    )
    return {
        "evaluation/disarmed_s": round(disarmed, 3),
        "evaluation/armed_idle_s": round(armed, 3),
        "evaluation/fault_overhead": round(armed / disarmed, 4) if disarmed else 1.0,
    }


def bench_store_sweep(sample: int | None, repeats: int = 1) -> dict[str, float]:
    """Durable-sweep cost: store-off vs cold write-through vs warm read-mostly.

    Three shapes of the same evaluation sweep: no store (the baseline), a
    cold store (every chart computes and publishes -- the fsync-bounded
    write-through tax), and a warm store (every chart loads a verified
    entry instead of rendering/observing/analyzing).  Off/cold pairs keep
    the minima honest on a busy machine, mirroring
    ``measure_fault_overhead``; the warm sweep runs against the store a
    populating sweep just filled, with in-memory caches cleared so reads
    genuinely come from disk.
    """
    import shutil
    import tempfile

    from repro.experiments import run_full_evaluation

    applications = _catalogue(sample)

    def sweep(store_dir: Path | None):
        return lambda: run_full_evaluation(applications=applications, store=store_dir)

    root = Path(tempfile.mkdtemp(prefix="repro-store-bench-"))
    cold_dir, warm_dir = root / "cold", root / "warm"

    def fresh_cold_start() -> None:
        shutil.rmtree(cold_dir, ignore_errors=True)  # every cold run starts empty
        cold_start()

    try:
        off, cold = _cold_minima(
            [sweep(None), sweep(cold_dir)], repeats, before=fresh_cold_start
        )
        shutil.rmtree(cold_dir, ignore_errors=True)
        sweep(warm_dir)()
        (warm,) = _cold_minima([sweep(warm_dir)], repeats)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "evaluation/store_off_s": round(off, 3),
        "evaluation/store_cold_s": round(cold, 3),
        "evaluation/store_warm_s": round(warm, 3),
        "evaluation/store_cold_overhead": round(cold / off, 4) if off else 1.0,
        "evaluation/store_warm_speedup": round(off / warm, 2) if warm else 0.0,
    }


#: ``--check`` compares these end-to-end metrics, normalized per chart, so a
#: smoke-sized run remains comparable with a committed full-catalogue record.
CHECK_KEYS = (
    "evaluation/current_s",
    "netpol_impact/compiled_s",
    "evaluation/store_warm_s",
)

#: The band of :func:`check_against_committed`: a fresh per-chart number may
#: reach this multiple of the committed one.
TOLERANCE = 3.0

#: ``--check`` also gates the armed-but-idle fault-hook tax: arming a plan
#: that never fires must stay a low-single-digit-percent cost on the
#: default evaluation sweep.  The tax measures 2.0-2.4% on this container
#: (full-catalogue ``--full`` record and smoke remeasure alike), so the
#: original 1.02 limit sat exactly on the measurement and tripped on
#: noise; 1.03 keeps margin while still catching a hook falling off its
#: plan-lookup fast path (a real regression lands far above 3%).
FAULT_OVERHEAD_LIMIT = 1.03

#: ``--check`` gates the compiled/naive ratio of the Figure 4b sweep: the
#: default sweep (install-free deployments, compiled policy index) must
#: stay at least on par with its reference (a fresh naive-policy cluster
#: installed per chart); a small band absorbs scheduler noise at ~100 ms
#: sweep scale.  The arms differ in install as well as in the policy
#: engine, so the ratio does not isolate the engine: over the full
#: catalogue it reads ~0.8, and the compiled arm could grow ~30% before
#: it trips.
NETPOL_RATIO_LIMIT = 1.05

#: ``--check`` gates the compiled/naive ratio of ``matrix_sources``, both
#: arms measured in the same run, per fleet size.  Each limit is the
#: grouped/naive ratio the committed record holds for the per-object walk
#: the bitset engine replaced (``matrix_sources/grouped`` over
#: ``matrix_sources/naive``), so the engine must never cost more than that
#: walk did.  The committed compiled/naive ratios sit 3.0x (30 pods) and
#: 4.6x (240 pods) under these limits.  The smoke fleet is tiny
#: (microsecond surfaces), so a trip triggers a median-of-5 remeasure at
#: 240 pods before failing.
MATRIX_RATIO_LIMITS = {30: 0.0540, 240: 0.0476}

#: ``--check`` gates the no-op delta round: re-verifying an unchanged
#: catalogue against a warm evaluator must cost at most 5% of the full
#: from-scratch sweep it replaces -- the whole point of watch mode.  A
#: trip triggers a min-of-5 remeasure (a no-op round is milliseconds, so
#: one noisy scheduler slice can dwarf it) before failing.
DELTA_NOOP_RATIO_LIMIT = 0.05

#: The delta suite's minimum catalogue sample.  A no-op round is
#: classification-only, so at the 4-chart smoke sample its fixed costs
#: (analyzer setup, result assembly) dominate and the ratio measures
#: nothing; 60 charts keeps the smoke pass fast while the ratio reflects
#: the per-chart costs the gate is about.
DELTA_SAMPLE_FLOOR = 60


def check_against_committed(
    record: dict, committed_path: Path, tolerance: float = TOLERANCE
) -> list[str]:
    """Regression check: fresh per-chart end-to-end numbers vs the committed file.

    Returns human-readable failure messages (empty = within the band).  The
    committed numbers come from a full-catalogue run on the recording
    machine; the fresh ones usually come from ``--smoke`` on whatever runs
    CI, so the band (`tolerance`, a multiplier) absorbs machine variance and
    sample-size effects while still catching order-of-magnitude
    regressions -- a hot path falling off its compiled/cached fast path.
    """
    committed = json.loads(committed_path.read_text())
    failures: list[str] = []
    committed_e2e = committed.get("end_to_end", {})
    fresh_e2e = record.get("end_to_end", {})
    committed_charts = committed_e2e.get("charts") or 1.0
    fresh_charts = fresh_e2e.get("charts") or 1.0
    for key in CHECK_KEYS:
        if key not in committed_e2e or key not in fresh_e2e:
            failures.append(f"{key}: missing from committed or fresh record")
            continue
        committed_per_chart = committed_e2e[key] / committed_charts
        fresh_per_chart = fresh_e2e[key] / fresh_charts
        limit = committed_per_chart * tolerance
        if fresh_per_chart > limit:
            failures.append(
                f"{key}: {fresh_per_chart * 1e3:.3f} ms/chart exceeds "
                f"{committed_per_chart * 1e3:.3f} ms/chart × {tolerance:.1f} "
                f"(committed {committed_path.name})"
            )
    return failures


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line, with the ``--check`` and ``--smoke`` settings applied."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON record (default: BENCH_connectivity.json; "
        "--smoke writes nothing unless set explicitly)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per case"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the end-to-end sweep over the full catalogue instead of a sample",
    )
    parser.add_argument(
        "--sample", type=int, default=60, help="catalogue sample size for the e2e sweep"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long sanity pass: one repeat, one fleet size, tiny sample",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run a --smoke pass and fail (exit 1) when per-chart end-to-end "
        "numbers regress past 3x the committed BENCH_connectivity.json",
    )
    args = parser.parse_args(argv)
    if args.check:
        args.smoke = True
    if args.smoke:
        args.repeats = 1
        args.sample = min(args.sample, 4)
        args.full = False
    args.repeats = max(args.repeats, 1)
    return args


def _samples(args: argparse.Namespace) -> tuple[int | None, int | None]:
    """The end-to-end catalogue sample and the delta suite's (None: all)."""
    if args.full:
        return None, None
    return args.sample, max(args.sample, DELTA_SAMPLE_FLOOR)


def _ratio(before: float, after: float) -> str:
    # Tiny samples can round a sweep to 0.000s; don't divide by it.
    return f"{before / after:.2f}x" if after else "n/a"


def measure(args: argparse.Namespace) -> tuple[dict[int, dict[str, float]], dict]:
    """Run every case at ``args``' settings: per-size ns/op and the record."""
    fleet_sizes = SMOKE_FLEET_SIZES if args.smoke else FLEET_SIZES
    per_size: dict[int, dict[str, float]] = {}
    for pod_count in fleet_sizes:
        per_size[pod_count] = run_size(pod_count, repeats=args.repeats)
    if args.full:
        for pod_count in LARGE_FLEET_SIZES:
            per_size[pod_count] = run_large_size(
                pod_count, repeats=min(args.repeats, 2)
            )
    print(format_table(per_size))

    sample, delta_sample = _samples(args)
    e2e_repeats = 1 if args.smoke else min(args.repeats, 3)
    # The naive-vs-compiled pair is the one recorded comparison where the
    # delta is far below sweep noise, so the recording run takes extra pairs.
    e2e = bench_netpol_sweep(sample, repeats=9 if args.full else e2e_repeats)
    print(
        f"\nFigure 4b sweep over {int(e2e['charts'])} charts: "
        f"naive {e2e['netpol_impact/naive_s']}s -> "
        f"compiled {e2e['netpol_impact/compiled_s']}s "
        f"({_ratio(e2e['netpol_impact/naive_s'], e2e['netpol_impact/compiled_s'])})"
    )
    e2e.update(bench_full_evaluation(sample, repeats=e2e_repeats))
    print(
        f"catalogue evaluation over {int(e2e['charts'])} charts: "
        f"{e2e['evaluation/current_s']}s"
    )
    overhead = measure_fault_overhead(sample, rounds=e2e_repeats)
    e2e.update(overhead)
    print(
        f"armed-but-idle fault hooks: disarmed {overhead['evaluation/disarmed_s']}s -> "
        f"armed {overhead['evaluation/armed_idle_s']}s "
        f"({overhead['evaluation/fault_overhead']:.4f}x)"
    )
    store_sweep = bench_store_sweep(sample, repeats=e2e_repeats)
    e2e.update(store_sweep)
    print(
        f"durable sweep: store-off {store_sweep['evaluation/store_off_s']}s -> "
        f"cold store {store_sweep['evaluation/store_cold_s']}s "
        f"({store_sweep['evaluation/store_cold_overhead']:.4f}x) -> "
        f"warm store {store_sweep['evaluation/store_warm_s']}s "
        f"({_ratio(store_sweep['evaluation/store_off_s'], store_sweep['evaluation/store_warm_s'])})"
    )
    delta = run_delta_suite(sample=delta_sample, repeats=e2e_repeats)
    print(
        f"delta rounds over {int(delta['charts'])} charts: "
        f"full sweep {delta['delta/full_sweep_s']}s -> "
        f"no-op {delta['delta/noop_s']}s "
        f"({delta.get('delta/noop_ratio', 0.0):.4f}x) -> "
        f"edit-4 {delta['delta/edit4_s']}s "
        f"({delta.get('delta/edit4_ratio', 0.0):.4f}x)"
    )

    record = {
        "suite": "connectivity",
        "unit": "ns/op",
        "fleet_sizes": list(fleet_sizes),
        "cases": {
            f"{case}/pods={pod_count}": round(value, 1)
            for pod_count, results in per_size.items()
            for case, value in results.items()
        },
        "speedups": {
            f"{case}/pods={pod_count}": round(
                results[f"{case}/naive"] / results[f"{case}/compiled"], 2
            )
            for pod_count, results in per_size.items()
            for case in ("check_ingress", "reachable_endpoints", "matrix_sources")
            if f"{case}/naive" in results
        },
        "delta": delta,
        "end_to_end": e2e,
    }
    return per_size, record


def gate(args: argparse.Namespace, per_size: dict[int, dict[str, float]], record: dict) -> int:
    """``--check``: compare a smoke pass with the committed record; 1 on regression.

    A gate that trips on one noisy smoke reading remeasures with more
    repeats before it fails.
    """
    # The gate always compares against the *committed* record --
    # ``--output`` keeps its write-destination meaning and is simply
    # unused here (check mode never writes a file).
    committed = Path(__file__).resolve().parent.parent / "BENCH_connectivity.json"
    if not committed.exists():
        print(f"\n--check: no committed record at {committed}")
        return 1
    sample, delta_sample = _samples(args)
    failures = check_against_committed(record, committed)
    if any(
        failure.startswith("evaluation/store_warm_s:") and "exceeds" in failure
        for failure in failures
    ):
        # A 4-chart warm sweep is dominated by fixed per-sweep costs
        # (journal open, store handles) that a full-catalogue run
        # amortizes away: remeasure min-of-5 before declaring a
        # regression.
        retry = bench_store_sweep(sample, repeats=5)
        print(
            f"store-sweep remeasure (min of 5): "
            f"warm {retry['evaluation/store_warm_s']}s"
        )
        record["end_to_end"].update(retry)
        failures = check_against_committed(record, committed)
    netpol_ratio = (
        record["end_to_end"]["netpol_impact/compiled_s"]
        / record["end_to_end"]["netpol_impact/naive_s"]
        if record["end_to_end"].get("netpol_impact/naive_s")
        else 1.0
    )
    if netpol_ratio > NETPOL_RATIO_LIMIT:
        # One cold pair over a 4-chart sample is noisy: remeasure with
        # min-of-5 alternating pairs before declaring the compiled
        # Figure 4b path a regression over the naive reference.
        retry = bench_netpol_sweep(sample, repeats=5)
        netpol_ratio = (
            retry["netpol_impact/compiled_s"] / retry["netpol_impact/naive_s"]
            if retry["netpol_impact/naive_s"]
            else 1.0
        )
        print(f"netpol-impact remeasure (min of 5 pairs): {netpol_ratio:.4f}x")
        record["end_to_end"].update(retry)
        if netpol_ratio > NETPOL_RATIO_LIMIT:
            failures.append(
                f"netpol_impact ratio: compiled is {netpol_ratio:.4f}x naive "
                f"(limit {NETPOL_RATIO_LIMIT:.2f}x)"
            )
    smoke_results = per_size[SMOKE_FLEET_SIZES[0]]
    matrix_limit = MATRIX_RATIO_LIMITS[SMOKE_FLEET_SIZES[0]]
    matrix_ratio = (
        smoke_results["matrix_sources/compiled"]
        / smoke_results["matrix_sources/naive"]
    )
    if matrix_ratio > matrix_limit:
        # The smoke fleet's surfaces are microseconds: remeasure at 240
        # pods with median-of-5 before declaring the bitset engine a
        # regression past the grouped walk it replaced.
        from connectivity_cases import bench_matrix_sources, build_fleet

        retry = bench_matrix_sources(build_fleet(240), repeats=5)
        matrix_limit = MATRIX_RATIO_LIMITS[240]
        matrix_ratio = (
            retry["matrix_sources/compiled"] / retry["matrix_sources/naive"]
        )
        print(
            f"matrix_sources remeasure (240 pods, median of 5): "
            f"{matrix_ratio:.4f}x naive"
        )
        if matrix_ratio > matrix_limit:
            failures.append(
                f"matrix_sources ratio: the bitset engine costs "
                f"{matrix_ratio:.4f}x the naive scan (limit "
                f"{matrix_limit:.4f}x, the grouped walk it replaced)"
            )
    noop_ratio = record["delta"].get("delta/noop_ratio", 0.0)
    if noop_ratio > DELTA_NOOP_RATIO_LIMIT:
        # A no-op delta round over a 4-chart smoke sample lasts
        # milliseconds; remeasure min-of-5 before declaring the
        # classification fast path a regression.
        retry = run_delta_suite(delta_sample, repeats=5)
        noop_ratio = retry.get("delta/noop_ratio", 0.0)
        print(f"delta no-op remeasure (min of 5): {noop_ratio:.4f}x")
        record["delta"] = retry
        if noop_ratio > DELTA_NOOP_RATIO_LIMIT:
            failures.append(
                f"delta/noop_ratio: a no-op delta round costs {noop_ratio:.4f}x "
                f"the full sweep (limit {DELTA_NOOP_RATIO_LIMIT:.2f}x)"
            )
    if record["end_to_end"]["evaluation/fault_overhead"] > FAULT_OVERHEAD_LIMIT:
        # A single cold pair is noisy on a loaded machine: before
        # declaring a regression, remeasure with min-of-5 pairs.
        retry = measure_fault_overhead(sample, rounds=5)
        print(
            f"fault-overhead remeasure (min of 5 pairs): "
            f"{retry['evaluation/fault_overhead']:.4f}x"
        )
        if retry["evaluation/fault_overhead"] > FAULT_OVERHEAD_LIMIT:
            failures.append(
                f"evaluation/fault_overhead: armed-but-idle hooks cost "
                f"{retry['evaluation/fault_overhead']:.4f}x "
                f"(limit {FAULT_OVERHEAD_LIMIT:.2f}x)"
            )
    if failures:
        print("\n--check FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\n--check passed (tolerance {TOLERANCE:.1f}x vs {committed.name})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    per_size, record = measure(args)
    if args.check:
        return gate(args, per_size, record)
    if args.output is None and args.smoke:
        print("\nsmoke pass complete (no file written)")
        return 0
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).resolve().parent.parent / "BENCH_connectivity.json"
    )
    # Atomic publish: an interrupted run must never leave a torn committed
    # regression-gate file behind.
    atomic_write_text(output, json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
