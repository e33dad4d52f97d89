"""The benchmark's four workloads, their correctness checks and metrics.

Every workload runs in this one process (no pool workers); fresh
interpreters are spawned only to time what a new process pays: the set-up
probes and the ``insidejob sweep`` CLI.  A workload builds its inputs from
the seed, warms up once, then repeats its operation for the run's seconds.
In a traced run the first half is untraced (the reference for the tracing
overhead) and the second half runs under :class:`tracing.Tracer`.

End-to-end metrics, reported by every workload:

``setup_s``       fresh interpreter until the first operation can start
``primary_ms``    the workload's user-facing operation (median)
``secondary_ms``  its companion figure (see each workload's docstring)
``peak_rss_mb``   peak resident memory of the process doing the work

The three timings are in reference seconds, i.e. at a fixed core speed.
On a shared virtual machine the core under a busy process runs the same
code up to ~2x slower for stretches of seconds to tens of seconds (CPU time
tracks wall time: other tenants slow the core, they do not preempt it), and
another vCPU does not see the same stretches.  So every timed operation is
bracketed by timings of a fixed interpreter-bound :func:`kernel` in this
process (pinned, with its children, to one CPU by ``run.py``), and its wall
time is divided by their mean over ``KERNEL_REF_S``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracing import LAYERS, ROOT_PREFIX, Tracer, trace_path

END_TO_END = {
    "setup_s": "s",
    "primary_ms": "ms",
    "secondary_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.wall_s": "s",
    "datasets.build_catalog_s": "s",
    "helm.render_s": "s",
    "helm.render_calls": "count",
    "helm.render_cache_hits": "count",
    "helm.template_parses": "count",
    "helm.skeleton_parses": "count",
    "k8s.inventory_s": "s",
    "k8s.intern_hit_ratio": "ratio",
    "session.observe_s": "s",
    "session.observe_calls": "count",
    "session.memo_hit_ratio": "ratio",
    "core.rules_s": "s",
    "core.cluster_wide_s": "s",
    "watch.scan_s": "s",
    "delta.classify_s": "s",
    "delta.recomputed_charts": "count",
    "delta.reused_ratio": "ratio",
    "store.write_s": "s",
    "store.fsync_s": "s",
    "store.journal_append_s": "s",
    "store.writes": "count",
    "store.read_s": "s",
    "store.reads": "count",
    "store.verify_failures": "count",
    "cluster.lease_s": "s",
    "cluster.install_s": "s",
    "network.matrix_build_s": "s",
    "network.connect_s": "s",
    "network.connect_calls": "count",
    "cli.overhead_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Fresh-interpreter set-up probes per run (their median is ``setup_s``).
SETUP_PROBES = 5
#: Every run times at least this many operations, however short ``seconds``.
MIN_OPS = 3
#: Subprocess time limit: a hung child fails the run instead of hanging it.
CHILD_TIMEOUT_S = 120
#: Kernel runs per speed reading; a reading is their median.
KERNEL_RUNS = 3
#: The speed a reference second is measured at: one :func:`kernel` run takes
#: this long (about an uncontended core of the 2-vCPU Sapphire Rapids guest
#: the baseline in README.md was measured on; a contended one takes ~0.8 ms).
KERNEL_REF_S = 0.0005
_KERNEL_KEYS = [f"key-{index}-" + "x" * (index % 13) for index in range(4096)]
_KERNEL_TABLE = {key: index for index, key in enumerate(_KERNEL_KEYS)}
_KERNEL_ROWS = [(_KERNEL_KEYS[index * 7919 % 4096], index) for index in range(8000)]


def kernel() -> int:
    """Fixed interpreter work of the program's kind (string-keyed dict
    lookups over a few hundred KiB) that allocates nothing the collector
    tracks, so its time follows the speed of the core alone."""
    total = 0
    for key, index in _KERNEL_ROWS:
        total += _KERNEL_TABLE[key] ^ index
    return total


def kernel_time() -> float:
    """One speed reading: the median wall time of ``KERNEL_RUNS`` kernels."""
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def clear_render_caches() -> None:
    """Drop the render, template, skeleton and intern caches (a cold start)."""
    from repro.helm import clear_skeleton_parse_memo, clear_template_cache, shared_render_cache
    from repro.k8s import clear_intern_table

    clear_template_cache()
    shared_render_cache().clear()
    clear_skeleton_parse_memo()
    clear_intern_table()


def global_counters() -> dict[str, int]:
    """The process-wide render and intern counters, read at op boundaries."""
    from repro.helm import shared_render_cache, skeleton_parse_count, template_parse_count
    from repro.k8s import intern_stats

    render = shared_render_cache().stats()
    intern = intern_stats()
    return {
        "render_hits": render["hits"],
        "render_misses": render["misses"],
        "template_parses": template_parse_count(),
        "skeleton_parses": skeleton_parse_count(),
        "intern_hits": intern["hits"],
        "intern_misses": intern["misses"],
    }


def canonical_reports(result) -> tuple[list[dict], list[str]]:
    """An evaluation in canonical form: every report in order, failed ids."""
    return (
        [entry.report.to_dict() for entry in result.analyzed],
        [failure.unique_id for failure in result.failed],
    )


def mismatched(expected: list, actual: list) -> int:
    """How many positions of two canonical lists differ (length gap counts)."""
    differing = sum(1 for left, right in zip(expected, actual) if left != right)
    return differing + abs(len(expected) - len(actual))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Workload:
    """One workload: seeded inputs, a repeated operation, checks, metrics."""

    name = ""
    #: Sample keys timed in-process (traceable); their medians sum to the
    #: figure the tracing overhead is taken from.
    traced_keys: tuple[str, ...] = ()

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer: Tracer | None = None
        self.counters: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Whether timings are scaled to reference seconds (set by ``run``).
        self.normalise = False
        self.slowdowns: list[float] = []

    # Hooks -------------------------------------------------------------------
    def setup(self) -> None:
        """Build the seeded inputs (untimed)."""

    def probe_args(self) -> list[str]:
        return ["catalog"]

    def step(self) -> dict[str, list[float]]:
        """Run one operation; return its timings in seconds by key."""
        raise NotImplementedError

    def end_to_end(self, samples: dict[str, list[float]]) -> tuple[float, float]:
        """(primary, secondary) seconds from the untraced samples."""
        raise NotImplementedError

    def finish(self) -> None:
        """Final correctness checks (untimed)."""

    def layer_extras(self, ops: int) -> dict[str, float]:
        """Workload-specific per-layer counters of the traced phase."""
        return {}

    # Shared machinery ----------------------------------------------------------
    def charge(self, attempted: int, failed: int, problem: str) -> None:
        """Count charts attempted and those that failed a check."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{failed} charts: {problem}")

    def timed(self, name: str, operation):
        """Run ``operation()`` as one timed operation; return (result, seconds).

        The collector runs before and is paused during the operation (the
        ``timeit`` convention, as ``benchmarks/run.py`` does): on a shared
        host, full collections over a large heap are what swings in-process
        timings most.  In the traced phase the operation is also a root span
        and the process-wide render and intern counters are read around it.
        """
        tracer = self.tracer
        gc.collect()
        gc.disable()
        try:
            if tracer is None:
                return self.measured(operation)[:2]
            before = global_counters()
            index = tracer.enter(ROOT_PREFIX + name)
            start = time.perf_counter()
            try:
                result = operation()
            finally:
                elapsed = time.perf_counter() - start
                tracer.exit(index)
                tracer.settle_sources()
            for key, value in global_counters().items():
                self.counters[key] += value - before[key]
            return result, elapsed
        finally:
            gc.enable()

    def measured(self, operation):
        """Run ``operation()``; return (result, seconds, slowdown).

        When ``normalise`` is set the seconds are reference seconds: wall
        seconds over the slowdown, the mean of speed readings taken right
        before and right after over ``KERNEL_REF_S``.  The readings run in
        this process, so on the core it (and a child it waits for) is on; a
        slow stretch of a core lasts seconds, longer than one operation.
        Otherwise they are wall seconds and the slowdown is 1.
        """
        before = kernel_time() if self.normalise else 0.0
        start = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - start
        if not self.normalise:
            return result, elapsed, 1.0
        slowdown = (before + kernel_time()) / (2 * KERNEL_REF_S)
        self.slowdowns.append(slowdown)
        return result, elapsed / slowdown, slowdown

    def child_env(self) -> dict[str, str]:
        """Children import the checkout's ``src`` and keep bytecode caches,
        as an installed tool would."""
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def probe(self) -> dict[str, list[float]]:
        """One fresh interpreter's set-up, split into import and first step."""
        spawned = []

        def spawn():
            spawned.append(time.time())
            return subprocess.run(
                [sys.executable, str(Path(__file__).with_name("probe.py")), *self.probe_args()],
                cwd=self.root, env=self.child_env(), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )

        proc, _, slowdown = self.measured(spawn)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = (report["ready_at"] - spawned[0]) / slowdown
        step = report["step_s"] / slowdown
        return {"setup": [setup], "import": [setup - step], "step": [step]}

    def loop(self, seconds: float, probes: int = 0) -> dict[str, list[float]]:
        """Repeat the operation for ``seconds``, with ``probes`` set-up probes
        spread evenly over the window so they see the same host load."""
        samples: dict[str, list[float]] = {}
        start = time.perf_counter()
        ops = probed = 0
        while ops < MIN_OPS or probed < probes or time.perf_counter() - start < seconds:
            timings = {}
            if probed < probes and time.perf_counter() - start >= seconds * probed / probes:
                timings.update(self.probe())
                probed += 1
            timings.update(self.step())
            for key, values in timings.items():
                samples.setdefault(key, []).extend(values)
            ops += 1
        return samples

    def run(self, seconds: float, trace: bool) -> dict:
        self.setup()
        self.probe()  # untimed: writes the bytecode caches, warms the page cache
        self.step()  # untimed: lazy imports and first-touch costs
        # The end-to-end figures are in reference seconds; a traced run
        # compares its halves and layers in wall seconds.
        self.normalise = not trace
        untraced = self.loop(seconds / 2 if trace else seconds, probes=SETUP_PROBES)
        metrics: dict[str, float] = {}
        lines = [f"{key}: {len(values)} samples, median {statistics.median(values) * 1e3:.1f} ms,"
                 f" p90 {percentile(values, 0.9) * 1e3:.1f} ms"
                 for key, values in untraced.items()]
        if trace:
            self.tracer = Tracer()
            self.tracer.install()
            try:
                traced = self.loop(seconds / 2)
            finally:
                self.tracer.restore()
            self.tracer.write(trace_path(self.root, self.name, self.seed))
            metrics.update(self.per_layer(untraced, traced))
            lines.append(f"traced: {len(self.tracer.spans)} spans")
        else:
            primary, secondary = self.end_to_end(untraced)
            lines.append(f"host slowdown {statistics.median(self.slowdowns):.3f}"
                         f" (median of {len(self.slowdowns)} timings)")
            metrics.update({
                "setup_s": statistics.median(untraced["setup"]),
                "primary_ms": primary * 1e3,
                "secondary_ms": secondary * 1e3,
                "peak_rss_mb": self.peak_rss_mb(),
            })
        self.finish()
        return {"metrics": metrics, "lines": lines + self.problems}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def per_layer(self, untraced, traced) -> dict[str, float]:
        from repro.cluster import AnalysisSession
        from repro.store import ResultStore

        tracer = self.tracer
        ops = len(traced[self.traced_keys[0]])
        times = tracer.self_times()
        metrics = {f"{layer}_s": times.get(layer, 0.0) / ops for layer in LAYERS}
        counters = self.counters
        memo = tracer.source_totals(AnalysisSession)
        store = tracer.source_totals(ResultStore)
        verify_failures = (
            store.get("corruptions", 0) + store.get("version_skew", 0) + store.get("read_errors", 0)
        )
        metrics.update({
            "import.wall_s": statistics.median(untraced["import"]),
            "datasets.build_catalog_s": (
                statistics.median(untraced["step"]) if self.probe_args() == ["catalog"] else 0.0
            ),
            "helm.render_calls": (counters["render_hits"] + counters["render_misses"]) / ops,
            "helm.render_cache_hits": counters["render_hits"] / ops,
            "helm.template_parses": counters["template_parses"] / ops,
            "helm.skeleton_parses": counters["skeleton_parses"] / ops,
            "k8s.intern_hit_ratio": _ratio(
                counters["intern_hits"], counters["intern_hits"] + counters["intern_misses"]
            ),
            "session.observe_calls": tracer.calls("session.observe") / ops,
            "session.memo_hit_ratio": _ratio(
                memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0)
            ),
            "store.writes": store.get("writes", 0) / ops,
            "store.reads": (store.get("hits", 0) + store.get("misses", 0) + verify_failures) / ops,
            "store.verify_failures": verify_failures / ops,
            "network.connect_calls": tracer.calls("network.connect") / ops,
            "delta.recomputed_charts": 0.0,
            "delta.reused_ratio": 0.0,
            "cli.overhead_s": 0.0,
            "unattributed_s": sum(
                value for name, value in times.items() if name.startswith(ROOT_PREFIX)
            ) / ops,
            "trace.overhead_s": sum(
                statistics.median(traced[key]) - statistics.median(untraced[key])
                for key in self.traced_keys
            ),
        })
        metrics.update(self.layer_extras(ops))
        if "cli" in untraced:
            metrics["cli.overhead_s"] = (
                statistics.median(untraced["cli"]) - statistics.median(untraced["setup"])
                - statistics.median(untraced["sweep"])
            )
        return {name: metrics[name] for name in PER_LAYER}


class ColdSweep(Workload):
    """``insidejob sweep`` in a fresh interpreter, plus the same sweep in-process.

    primary: the CLI wall clock.  secondary: the in-process cold
    ``run_full_evaluation`` over the seed-shuffled catalogue with render,
    template, skeleton and intern caches cleared.
    """

    name = "cold_sweep"
    traced_keys = ("sweep",)
    #: In-process sweeps per CLI sweep: the in-process figure is the
    #: noisier of the two on a shared host, so it gets more samples.
    SWEEPS_PER_CLI = 2

    def setup(self) -> None:
        from repro.datasets import build_catalog, expected_dataset_counts
        from repro.experiments import run_full_evaluation

        self.apps = build_catalog()
        self.rng.shuffle(self.apps)
        self.sizes = Counter(app.dataset for app in self.apps)
        self.expected = {dataset: expected_dataset_counts(dataset) for dataset in self.sizes}
        reference = run_full_evaluation(applications=self.apps)
        self.check(reference)
        self.expected_stdout = reference.summary.table2_text() + "\n"

    def check(self, result) -> None:
        failed = len(result.failed)
        for dataset, expected in self.expected.items():
            summary = result.summary.dataset_summary(dataset)
            got = {cls.value: count for cls, count in summary.counts.items()}
            if any(got.get(name, 0) != count for name, count in expected.items()):
                failed += self.sizes[dataset]
        self.charge(len(self.apps), failed, "in-process sweep differs from Table 2")

    def step(self) -> dict[str, list[float]]:
        from repro.experiments import run_full_evaluation

        samples = {"sweep": []}
        if self.tracer is None:
            proc, elapsed, _ = self.measured(lambda: subprocess.run(
                [sys.executable, "-m", "repro.cli", "sweep"], cwd=self.root,
                env=self.child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            ))
            samples["cli"] = [elapsed]
            ok = proc.returncode == 0 and proc.stdout == self.expected_stdout
            self.charge(len(self.apps), 0 if ok else len(self.apps), "CLI sweep output differs")
        for _ in range(self.SWEEPS_PER_CLI):
            clear_render_caches()
            result, elapsed = self.timed(
                "sweep", lambda: run_full_evaluation(applications=self.apps)
            )
            samples["sweep"].append(elapsed)
            self.check(result)
            del result  # the next sweep must not run beside this one's heap
        return samples

    def end_to_end(self, samples):
        return statistics.median(samples["cli"]), statistics.median(samples["sweep"])

    def peak_rss_mb(self) -> float:
        # The CLI children: the largest is a sweep (set-up probes stop earlier).
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


class WatchEdits(Workload):
    """One ``watch`` round over on-disk charts under a seeded edit stream.

    primary: median round latency.  secondary: median latency of heavy
    rounds (at least four charts recomputed).  The p90 is printed with its
    sample count but not gated: on a shared host stalls outside the
    program set it.  Between
    rounds (untimed) the stream edits ``values.yaml`` of k charts, k cycling
    through a shuffled {0,0,1,1,2,2,4,4,8,8}; salts come from two values
    plus the original, so charts revert and hit the memos.  Each 10-round
    cycle also edits one template and removes or re-adds one chart.
    """

    name = "watch_edits"
    traced_keys = ("round",)
    CYCLE_KS = (0, 0, 1, 1, 2, 2, 4, 4, 8, 8)
    SALTS = (None, "a", "b")
    #: A round recomputing at least this many charts is a heavy round.
    HEAVY = 4
    #: Rounds planned up front; far more than a 60-second run completes.
    PLANNED_ROUNDS = 2000

    def setup(self) -> None:
        from repro.datasets import build_catalog
        from repro.experiments import DeltaEvaluator, watch_directory
        from repro.helm import dump_values

        self.charts_dir = self.work / "charts"
        self.parked_dir = self.work / "parked"
        self.parked_dir.mkdir(parents=True)
        self.values_text: dict[str, list[str]] = {}
        self.template_file: dict[str, tuple[Path, list[str]]] = {}
        for app in build_catalog():
            # <dataset>-<name>: the catalogue repeats 6 names across datasets.
            name = f"{_slug(app.dataset)}-{app.name}"
            chart_dir = self.charts_dir / name
            (chart_dir / "templates").mkdir(parents=True)
            metadata = dict(app.chart.metadata.to_dict(), name=name)
            (chart_dir / "Chart.yaml").write_text(dump_values(metadata), encoding="utf-8")
            self.values_text[name] = [
                dump_values(app.chart.values if salt is None
                            else dict(app.chart.values, perfbenchSalt=salt))
                for salt in self.SALTS
            ]
            (chart_dir / "values.yaml").write_text(self.values_text[name][0], encoding="utf-8")
            for template in app.chart.templates:
                (chart_dir / "templates" / template.name).write_text(
                    template.source, encoding="utf-8"
                )
            edited = next(t for t in app.chart.templates if not t.is_helper)
            self.template_file[name] = (
                Path("templates") / edited.name,
                [edited.source if salt is None
                 else edited.source + f"{{{{/* perfbench {salt} */}}}}\n"
                 for salt in self.SALTS],
            )
        self.plan = self.plan_stream(sorted(self.values_text))
        self.next_round = 0
        self.evaluator = DeltaEvaluator()
        first = watch_directory(self.charts_dir, rounds=1, evaluator=self.evaluator,
                                printer=lambda line: None)
        self.charge(len(self.values_text), len(first.failed), "first round quarantined")
        self.last = first
        self.recomputed = self.reused = self.charts = 0

    def plan_stream(self, names: list[str]) -> list[tuple]:
        """Seeded rounds of (writes, removed, added, expected recomputes)."""
        state = {name: [0, 0] for name in names}  # salt index of values, template
        present = set(names)
        parked: list[str] = []
        plan = []
        while len(plan) < self.PLANNED_ROUNDS:
            ks = list(self.CYCLE_KS)
            self.rng.shuffle(ks)
            template_round = self.rng.randrange(len(ks))
            toggle_round = self.rng.randrange(len(ks))
            for offset, k in enumerate(ks):
                writes, removed, added = [], [], []
                pool = sorted(present)
                for name in self.rng.sample(pool, k):
                    state[name][0] = self._next_salt(state[name][0])
                    writes.append((name, "values", state[name][0]))
                if offset == template_round:
                    name = self.rng.choice(pool)
                    state[name][1] = self._next_salt(state[name][1])
                    writes.append((name, "template", state[name][1]))
                if offset == toggle_round:
                    if parked:
                        added.append(parked.pop())
                        present.add(added[-1])
                    else:
                        removed.append(self.rng.choice(pool))
                        present.discard(removed[-1])
                        parked.append(removed[-1])
                changed = {name for name, _, _ in writes if name in present} | set(added)
                plan.append((writes, removed, added, len(changed)))
        return plan

    def _next_salt(self, current: int) -> int:
        return self.rng.choice([index for index in range(len(self.SALTS)) if index != current])

    def apply(self, writes, removed, added) -> None:
        for name in removed:
            os.replace(self.charts_dir / name, self.parked_dir / name)
        for name in added:
            os.replace(self.parked_dir / name, self.charts_dir / name)
        for name, kind, salt in writes:
            if kind == "values":
                path, text = Path("values.yaml"), self.values_text[name][salt]
            else:
                path, variants = self.template_file[name]
                text = variants[salt]
            base = self.charts_dir if (self.charts_dir / name).exists() else self.parked_dir
            (base / name / path).write_text(text, encoding="utf-8")

    def step(self) -> dict[str, list[float]]:
        from repro.experiments import watch_directory

        if self.next_round >= len(self.plan):
            raise RuntimeError("the planned edit stream is exhausted")
        writes, removed, added, expected = self.plan[self.next_round]
        self.next_round += 1
        self.apply(writes, removed, added)
        result, elapsed = self.timed("round", lambda: watch_directory(
            self.charts_dir, rounds=1, evaluator=self.evaluator, printer=lambda line: None
        ))
        stats = result.delta_stats
        wrong = len(result.failed) + abs(stats["recomputed"] - expected)
        self.charge(stats["charts"], wrong, "watch round quarantined or mis-classified")
        if self.tracer is not None:
            self.recomputed += stats["recomputed"]
            self.reused += stats["reused"]
            self.charts += stats["charts"]
        self.last = result
        if expected >= self.HEAVY:
            return {"round": [elapsed], "heavy": [elapsed]}
        return {"round": [elapsed]}

    def end_to_end(self, samples):
        # A run too short to meet a heavy round falls back to all rounds.
        heavy = samples.get("heavy") or samples["round"]
        return statistics.median(samples["round"]), statistics.median(heavy)

    def probe_args(self) -> list[str]:
        return ["watch", str(self.charts_dir)]

    def layer_extras(self, ops: int) -> dict[str, float]:
        return {
            "delta.recomputed_charts": self.recomputed / ops,
            "delta.reused_ratio": _ratio(self.reused, self.charts),
        }

    def finish(self) -> None:
        from repro.experiments import run_full_evaluation, scan_chart_directory

        charts = scan_chart_directory(self.charts_dir)
        clear_render_caches()
        scratch = run_full_evaluation(applications=charts)
        expected_reports, expected_failed = canonical_reports(scratch)
        reports, failed = canonical_reports(self.last)
        wrong = mismatched(expected_reports, reports) + len(set(failed) ^ set(expected_failed))
        self.charge(0, wrong, "last watch round differs from a from-scratch sweep")


class DurableStore(Workload):
    """A cold write-through sweep into a fresh store, then a warm sweep over it.

    primary: the cold sweep.  secondary: the warm sweep.  In-process caches
    are cleared before each; the catalogue order is seed-shuffled.
    """

    name = "durable_store"
    traced_keys = ("cold", "warm")

    def setup(self) -> None:
        from repro.datasets import build_catalog
        from repro.experiments import run_full_evaluation

        self.apps = build_catalog()
        self.rng.shuffle(self.apps)
        self.reference = canonical_reports(run_full_evaluation(applications=self.apps))

    def step(self) -> dict[str, list[float]]:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work)
        try:
            cold = self.timed_sweep("store_cold", store_dir, warm=False)
            warm = self.timed_sweep("store_warm", store_dir, warm=True)
        finally:
            shutil.rmtree(store_dir)
        return {"cold": [cold], "warm": [warm]}

    def timed_sweep(self, label: str, store_dir: str, warm: bool) -> float:
        """One cold-cache sweep against the store, checked and dropped before
        the next one, so no earlier result inflates the heap it runs in."""
        from repro.experiments import run_full_evaluation

        clear_render_caches()
        result, elapsed = self.timed(
            label, lambda: run_full_evaluation(applications=self.apps, store=store_dir)
        )
        reports, failed = canonical_reports(result)
        stats = result.store_stats
        # Cold computes every chart; warm loads every chart and computes none.
        served = stats["loaded"] - stats["computed"] if warm else stats["computed"]
        self.charge(len(self.apps),
                    len(failed) + mismatched(self.reference[0], reports) + len(self.apps) - served,
                    f"{label} sweep differs from the store-off sweep or missed the store")
        return elapsed

    def end_to_end(self, samples):
        return statistics.median(samples["cold"]), statistics.median(samples["warm"])


def _canonical_netpol(result) -> list[tuple]:
    return [
        tuple(sorted(value) if isinstance(value, set) else value
              for value in dataclasses.astuple(outcome))
        for outcome in result.applications
    ]


class NetpolProbe(Workload):
    """Figure 4b (``run_netpol_impact``) over the seed-shuffled catalogue.

    primary: with cold render caches.  secondary: the repeat with warm
    render caches, which leaves cluster install and reachability.
    """

    name = "netpol_probe"
    traced_keys = ("cold", "warm")

    def setup(self) -> None:
        from repro.datasets import build_catalog
        from repro.experiments import run_netpol_impact

        self.apps = build_catalog()
        self.rng.shuffle(self.apps)
        self.oracle = _canonical_netpol(run_netpol_impact(applications=self.apps, compiled=False))

    def step(self) -> dict[str, list[float]]:
        clear_render_caches()
        return {"cold": [self.timed_probe("netpol_cold")], "warm": [self.timed_probe("netpol_warm")]}

    def timed_probe(self, label: str) -> float:
        from repro.experiments import run_netpol_impact

        result, elapsed = self.timed(label, lambda: run_netpol_impact(applications=self.apps))
        self.charge(len(self.apps), mismatched(self.oracle, _canonical_netpol(result)),
                    f"{label} differs from the naive-policy oracle")
        return elapsed

    def end_to_end(self, samples):
        return statistics.median(samples["cold"]), statistics.median(samples["warm"])


WORKLOADS = {cls.name: cls for cls in (ColdSweep, WatchEdits, DurableStore, NetpolProbe)}
