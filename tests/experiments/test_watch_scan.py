"""Differential suite for watch mode's content-keyed rescan.

The invariant under test: **every watch round equals a from-scratch
sweep** -- ``run_full_evaluation`` over a fresh, uncached
``scan_chart_directory`` of the same directory, render caches cleared --
whatever the rescan reused.  A seeded multi-round edit stream over a
catalogue sample written to disk drives it through:

* values edits, including same-size salt swaps a -> b written back to
  back with the file's mtime restored, so size and mtime cannot tell them
  apart: the ctime in the stat signature can (``utime`` cannot set it),
  and inside the racy window the rescan reads the file again anyway;
* a comment that changes the bytes of ``values.yaml`` but not its values;
* a template edit and a ``Chart.yaml`` version bump;
* a template file added, then deleted;
* a chart directory removed, then re-added;
* no-op rounds.

Every round also pins the scan accounting (``delta_stats["scan"]``), the
recompute count (0 on a no-op round) and object identity: an unchanged
directory yields the previous round's ``WatchedChart``, an edited one a
new object.  Further pins: the behaviours fingerprint gates reuse; a
broken chart directory is quarantined as a ``load``-stage failure while
the rest of the round proceeds, and is re-read the next round; a file or
directory that vanishes mid-scan counts as absent.  The ``slow`` variant
runs the stream over the full catalogue.

A tree written seconds ago is all inside the racy window
(:data:`repro.experiments.delta.RACY_WINDOW_NS`), so a plain run re-reads
every file and checks the byte path.  The *aged* runs move the scan's clock
past the window, so unchanged signatures vouch for their files: that is
the stat path, and a no-op round over an aged tree opens no file.  The
racy-edit test simulates 1 s timestamps: a same-size rewrite in the same
second as the previous scan keeps its signature, and only the racy rule
makes the rescan read it again.  On a one-chart directory, each edit kind
(a same-size rewrite, a file emptied or deleted, a template renamed or
added empty, a version bump, an empty ``templates/`` appearing) is read
afresh on both the racy and the settled path, and a directory moved under
another name is parsed again yet classified unchanged.
"""

from __future__ import annotations

import builtins
import io
import os
import random
import re
import shutil
import stat
import time
from pathlib import Path

import pytest

import repro.helm.chart as chart_module
from repro.cluster import BehaviorRegistry, ContainerBehavior, ListenSpec
from repro.core import MisconfigClass
from repro.datasets import build_catalog
from repro.experiments import (
    DELTA_ADDED,
    DELTA_RE_OBSERVE,
    DELTA_UNCHANGED,
    FAILURE_STAGE_LOAD,
    DeltaEvaluator,
    run_full_evaluation,
    scan_chart_directory,
    watch_directory,
)
from repro.experiments import delta as delta_module
from repro.helm import Chart, clear_skeleton_parse_memo, clear_template_cache, dump_values
from repro.helm import shared_render_cache
from repro.k8s import clear_intern_table
from tests.support.diffing import assert_identical, canonical_evaluation

SAMPLE = 8
SALTS = (None, "a", "b")
EXTRA_TEMPLATE = "watch-extra.yaml"
EXTRA_SOURCE = (
    "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: {{ .Release.Name }}-watch-extra\n"
    "data:\n  note: extra\n"
)


def clear_render_caches() -> None:
    clear_template_cache()
    clear_skeleton_parse_memo()
    shared_render_cache().clear()
    clear_intern_table()


class ChartTree:
    """A catalogue sample on disk as ``<dataset>-<name>`` chart directories.

    Each edit method rewrites files the way an operator would and returns
    ``(parsed, recomputed)``: the directories the next rescan must parse
    afresh, and those whose chart content moved.
    """

    def __init__(self, root: Path, applications) -> None:
        self.root = root
        self.parked = root.parent / f"{root.name}-parked"
        self.parked.mkdir(parents=True)
        self.values: dict[str, list[str]] = {}
        self.salt: dict[str, int] = {}
        self.commented: set[str] = set()
        self.metadata: dict[str, dict] = {}
        self.template: dict[str, str] = {}
        for app in applications:
            name = re.sub(r"[^a-z0-9]+", "-", app.dataset.lower()).strip("-") + "-" + app.name
            chart_dir = root / name
            (chart_dir / "templates").mkdir(parents=True)
            self.metadata[name] = dict(app.chart.metadata.to_dict(), name=name)
            self.write(name, "Chart.yaml", dump_values(self.metadata[name]))
            self.values[name] = [
                dump_values(app.chart.values if salt is None
                            else dict(app.chart.values, watchSalt=salt))
                for salt in SALTS
            ]
            self.salt[name] = 0
            self.write(name, "values.yaml", self.values[name][0])
            for template in app.chart.templates:
                self.write(name, f"templates/{template.name}", template.source)
            self.template[name] = next(
                t.name for t in app.chart.templates if not t.is_helper
            )
        self.names = sorted(self.values)

    def write(self, name: str, relative: str, text: str) -> None:
        (self.root / name / relative).write_text(text, encoding="utf-8")

    def present(self) -> list[str]:
        return sorted(path.name for path in self.root.iterdir())

    # Edits --------------------------------------------------------------------
    def set_values(self, name: str, salt: int):
        path = self.root / name / "values.yaml"
        before = path.stat()
        moved = {name} if salt != self.salt[name] else set()
        rewritten = moved or name in self.commented
        self.write(name, "values.yaml", self.values[name][salt])
        if path.stat().st_size == before.st_size:
            # A same-size swap (salt a <-> b): restore the mtime as well,
            # so only the bytes tell the two versions apart.
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        self.salt[name] = salt
        self.commented.discard(name)
        return ({name} if rewritten else set()), moved

    def comment_values(self, name: str):
        with open(self.root / name / "values.yaml", "a", encoding="utf-8") as handle:
            handle.write("# reviewed\n")
        self.commented.add(name)
        return {name}, set()

    def edit_template(self, name: str):
        path = self.root / name / "templates" / self.template[name]
        path.write_text(path.read_text(encoding="utf-8") + "{{/* edited */}}\n", encoding="utf-8")
        return {name}, {name}

    def bump_version(self, name: str):
        meta = self.metadata[name]
        major, _, rest = str(meta.get("version", "0.1.0")).partition(".")
        meta["version"] = f"{int(major) + 1}.{rest or '0'}"
        self.write(name, "Chart.yaml", dump_values(meta))
        return {name}, {name}

    def add_template(self, name: str):
        self.write(name, f"templates/{EXTRA_TEMPLATE}", EXTRA_SOURCE)
        return {name}, {name}

    def delete_template(self, name: str):
        (self.root / name / "templates" / EXTRA_TEMPLATE).unlink()
        return {name}, {name}

    def remove(self, name: str):
        os.replace(self.root / name, self.parked / name)
        return set(), set()

    def readd(self, name: str):
        os.replace(self.parked / name, self.root / name)
        return {name}, {name}

    def apply(self, edits) -> tuple[set[str], set[str]]:
        parsed: set[str] = set()
        recomputed: set[str] = set()
        for kind, *args in edits:
            touched, moved = getattr(self, kind)(*args)
            parsed |= touched
            recomputed |= moved
        return parsed, recomputed


def edit_stream(tree: ChartTree, rng: random.Random, random_rounds: int) -> list[list[tuple]]:
    """A scripted prefix covering every edit kind, then seeded random rounds."""
    a, b, c, d, e = rng.sample(tree.names, 5)
    rounds = [
        [],
        [("set_values", a, 1)],
        [("set_values", a, 2)],
        [("set_values", a, 1), ("set_values", b, 2)],
        [("comment_values", c)],
        [],
        [("edit_template", d)],
        [("bump_version", e)],
        [("add_template", b)],
        [("delete_template", b)],
        [("remove", c)],
        [],
        [("readd", c)],
        [("set_values", a, 0), ("edit_template", e)],
    ]
    parked: list[str] = []
    for _ in range(random_rounds):
        present = [name for name in tree.names if name not in parked]
        edits = []
        for name in rng.sample(present, rng.choice((0, 1, 2, 3))):
            kind = rng.choice(("set_values", "edit_template", "bump_version", "comment_values"))
            if kind == "set_values":
                edits.append((kind, name, rng.randrange(len(SALTS))))
            else:
                edits.append((kind, name))
        if parked and rng.random() < 0.5:
            edits.append(("readd", parked.pop()))
        elif not parked and rng.random() < 0.3:
            victim = rng.choice([name for name in present if all(e[1] != name for e in edits)])
            parked.append(victim)
            edits.append(("remove", victim))
        rounds.append(edits)
    return rounds


def watch_round(root: Path, evaluator: DeltaEvaluator, behaviors=None, lines=None):
    return watch_directory(
        root,
        rounds=1,
        evaluator=evaluator,
        behaviors=behaviors,
        printer=(lines.append if lines is not None else lambda line: None),
    )


def assert_matches_scratch(result, root: Path, label: str, behaviors=None) -> None:
    fresh = scan_chart_directory(root, behaviors=behaviors)
    clear_render_caches()
    scratch = run_full_evaluation(applications=fresh)
    assert_identical(canonical_evaluation(scratch), canonical_evaluation(result), label)
    expected_failed = [failure.unique_id for failure in scratch.failed + fresh.failed]
    assert [failure.unique_id for failure in result.failed] == expected_failed, label


def charts_by_directory(evaluator: DeltaEvaluator) -> dict[str, object]:
    return {Path(chart.scan_key[0]).name: chart for chart in evaluator._charts}


def run_stream(tree: ChartTree, rounds: list[list[tuple]]) -> None:
    evaluator = DeltaEvaluator(retry_backoff=0.001)
    first = watch_round(tree.root, evaluator)
    assert first.delta_stats["scan"] == {
        "dirs": len(tree.names), "reused": 0, "parsed": len(tree.names), "load_failed": 0,
    }
    assert_matches_scratch(first, tree.root, "round 1")
    for number, edits in enumerate(rounds, start=2):
        label = f"round {number} {edits}"
        previous = charts_by_directory(evaluator)
        parsed, recomputed = tree.apply(edits)
        present = tree.present()
        result = watch_round(tree.root, evaluator)
        assert not result.failed, label
        stats = result.delta_stats
        parsed &= set(present)
        assert stats["scan"] == {
            "dirs": len(present),
            "reused": len(present) - len(parsed),
            "parsed": len(parsed),
            "load_failed": 0,
        }, label
        assert stats["recomputed"] == len(recomputed & set(present)), label
        current = charts_by_directory(evaluator)
        assert sorted(current) == present, label
        for name in present:
            if name in parsed:
                assert current[name] is not previous.get(name), f"{label}: {name} not reparsed"
            else:
                assert current[name] is previous[name], f"{label}: {name} not reused"
        assert_matches_scratch(result, tree.root, label)


@pytest.fixture
def tree(tmp_path):
    return ChartTree(tmp_path / "charts", build_catalog()[:SAMPLE])


@pytest.fixture
def aged(monkeypatch):
    """Move the scan's clock past the racy window: every file written so far is old."""
    clock = delta_module._scan_clock_ns
    monkeypatch.setattr(
        delta_module, "_scan_clock_ns", lambda: clock() + 2 * delta_module.RACY_WINDOW_NS
    )


class TestWatchRoundsMatchScratch:
    @pytest.mark.parametrize("seed", [7, 2026])
    def test_edit_stream(self, tree, seed):
        rng = random.Random(seed)
        run_stream(tree, edit_stream(tree, rng, random_rounds=6))

    @pytest.mark.parametrize("seed", [7, 2026])
    def test_edit_stream_over_an_aged_tree(self, tree, aged, seed):
        rng = random.Random(seed)
        run_stream(tree, edit_stream(tree, rng, random_rounds=6))

    def test_noop_round_over_an_aged_tree_opens_no_file(self, tree, aged):
        evaluator = DeltaEvaluator()
        first = watch_round(tree.root, evaluator)
        charts = list(evaluator._charts)
        opened: list = []

        def counting(function):
            def wrapper(path, *args, **kwargs):
                opened.append(path)
                return function(path, *args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((builtins, "open"), (io, "open"), (os, "open"),
                                 (os, "listdir")):
                patch.setattr(module, name, counting(getattr(module, name)))
            second = watch_round(tree.root, evaluator)
        assert opened == []
        assert second.delta_stats["scan"]["reused"] == SAMPLE
        assert second.delta_stats["recomputed"] == 0
        assert all(now is before for now, before in zip(evaluator._charts, charts))
        assert_identical(canonical_evaluation(first), canonical_evaluation(second), "no-op")

    def test_noop_round_recomputes_nothing_and_reuses_every_object(self, tree):
        evaluator = DeltaEvaluator()
        first = watch_round(tree.root, evaluator)
        charts = list(evaluator._charts)
        second = watch_round(tree.root, evaluator)
        assert second.delta_stats["recomputed"] == 0
        assert second.delta_stats["classified"][DELTA_UNCHANGED] == SAMPLE
        assert second.delta_stats["scan"]["reused"] == SAMPLE
        assert all(now is before for now, before in zip(evaluator._charts, charts))
        assert_identical(canonical_evaluation(first), canonical_evaluation(second), "no-op")

    def test_comment_edit_is_parsed_once_then_reused(self, tree):
        evaluator = DeltaEvaluator()
        watch_round(tree.root, evaluator)
        name = tree.names[0]
        tree.comment_values(name)
        commented = watch_round(tree.root, evaluator)
        assert commented.delta_stats["scan"]["parsed"] == 1
        assert commented.delta_stats["recomputed"] == 0
        settled = watch_round(tree.root, evaluator)
        assert settled.delta_stats["scan"]["parsed"] == 0
        assert_matches_scratch(settled, tree.root, "after comment")

    def test_state_is_bounded_to_one_round(self, tree):
        evaluator = DeltaEvaluator()
        watch_round(tree.root, evaluator)
        name = tree.names[1]
        original = charts_by_directory(evaluator)[name]
        tree.set_values(name, 1)
        watch_round(tree.root, evaluator)
        tree.set_values(name, 0)  # back to the original bytes
        reverted = watch_round(tree.root, evaluator)
        assert reverted.delta_stats["scan"]["parsed"] == 1
        assert charts_by_directory(evaluator)[name] is not original
        assert len(evaluator._charts) == SAMPLE


class TestBehaviorsGateReuse:
    @staticmethod
    def registry_with(port: int) -> BehaviorRegistry:
        registry = BehaviorRegistry()
        for image in build_catalog()[0].behaviors.images():
            registry.register(image, ContainerBehavior(extra_listens=[ListenSpec(port=port)]))
        return registry

    def test_fresh_default_registries_still_reuse(self, tree):
        evaluator = DeltaEvaluator()
        watch_round(tree.root, evaluator, behaviors=BehaviorRegistry())
        again = watch_round(tree.root, evaluator, behaviors=BehaviorRegistry())
        assert again.delta_stats["scan"]["reused"] == SAMPLE
        assert again.delta_stats["classified"][DELTA_UNCHANGED] == SAMPLE

    def test_moved_fingerprint_reuses_nothing_and_reobserves(self, tree):
        evaluator = DeltaEvaluator()
        watch_round(tree.root, evaluator)
        registry = self.registry_with(31990)
        moved = watch_round(tree.root, evaluator, behaviors=registry)
        assert moved.delta_stats["scan"] == {
            "dirs": SAMPLE, "reused": 0, "parsed": SAMPLE, "load_failed": 0,
        }
        assert moved.delta_stats["classified"][DELTA_RE_OBSERVE] == SAMPLE
        assert_matches_scratch(moved, tree.root, "moved behaviours", behaviors=registry)

        # Registering into the same registry object moves its fingerprint
        # too: the charts loaded under the old one must not be reused.
        registry.register("watch/extra:1.0", ContainerBehavior())
        in_place = watch_round(tree.root, evaluator, behaviors=registry)
        assert in_place.delta_stats["scan"]["reused"] == 0
        assert in_place.delta_stats["classified"][DELTA_RE_OBSERVE] == SAMPLE
        assert_matches_scratch(in_place, tree.root, "in-place registration", behaviors=registry)


#: Two Deployments whose pod labels are the same ``.Values.podLabels``
#: mapping: the M4A finding prints that mapping, in its iteration order.
LABELLED_UNIT = """\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-UNIT
spec:
  selector:
    matchLabels:
      {{- toYaml .Values.podLabels | nindent 6 }}
  template:
    metadata:
      labels:
        {{- toYaml .Values.podLabels | nindent 8 }}
    spec:
      containers:
        - name: UNIT
          image: watch/UNIT:1.0
"""


class TestValuesKeyOrder:
    def test_reordered_values_are_unchanged_and_match_scratch(self, tmp_path):
        root = tmp_path / "charts"
        chart_dir = root / "labelled"
        (chart_dir / "templates").mkdir(parents=True)
        (chart_dir / "Chart.yaml").write_text("apiVersion: v2\nname: labelled\nversion: 1.0.0\n")
        for unit in ("one", "two"):
            (chart_dir / "templates" / f"{unit}.yaml").write_text(
                LABELLED_UNIT.replace("UNIT", unit)
            )
        values = chart_dir / "values.yaml"
        values.write_text("podLabels:\n  tier: web\n  app: shop\n")
        evaluator = DeltaEvaluator()
        first = watch_round(root, evaluator)
        assert_matches_scratch(first, root, "written tier first")

        values.write_text("podLabels:\n  app: shop\n  tier: web\n")
        reordered = watch_round(root, evaluator)
        assert reordered.delta_stats["scan"]["parsed"] == 1
        assert reordered.delta_stats["classified"][DELTA_UNCHANGED] == 1
        assert reordered.delta_stats["recomputed"] == 0
        assert_matches_scratch(reordered, root, "rewritten app first")
        # Helm visits map keys sorted, whatever order values.yaml wrote them in.
        for result in (first, reordered):
            [collision] = [
                finding
                for finding in result.analyzed[0].report.findings
                if finding.misconfig_class is MisconfigClass.M4A
            ]
            assert "{'app': 'shop', 'tier': 'web'}" in collision.message


class TestRacyEdits:
    def test_same_second_rewrite_is_reread_and_recomputed(self, tree, monkeypatch):
        # A filesystem with 1 s timestamps: the signature floors mtime and ctime.
        signature = delta_module._signature

        def one_second(path, kind=stat.S_IFREG):
            found = signature(path, kind)
            if found is None:
                return None
            size, mtime, ctime, inode = found
            return (size, mtime - mtime % 10**9, ctime - ctime % 10**9, inode)

        monkeypatch.setattr(delta_module, "_signature", one_second)
        name = tree.names[0]
        path = str(tree.root / name / "values.yaml")
        evaluator = DeltaEvaluator()
        watch_round(tree.root, evaluator)
        for _ in range(5):
            # Start just past a second boundary, so that the write, the scan
            # recording it and the rewrite can share one second.
            time.sleep(1.02 - time.time() % 1)
            tree.set_values(name, 1)
            recorded = watch_round(tree.root, evaluator)
            assert recorded.delta_stats["recomputed"] == 1
            before = one_second(path)
            tree.set_values(name, 2)  # the same size, and set_values restores the mtime
            if one_second(path) == before:
                break
            tree.set_values(name, 0)
            watch_round(tree.root, evaluator)
        else:
            pytest.fail("no rewrite landed in the same second as its scan")
        result = watch_round(tree.root, evaluator)
        assert result.delta_stats["scan"]["parsed"] == 1
        assert result.delta_stats["recomputed"] == 1
        assert_matches_scratch(result, tree.root, "same-second rewrite")


SMALL_CHART = {
    "Chart.yaml": "apiVersion: v2\nname: small\nversion: 1.2.3\n",
    "values.yaml": "service:\n  port: 80\n",
    "templates/service.yaml": (
        "apiVersion: v1\nkind: Service\nmetadata:\n  name: {{ .Release.Name }}-small\n"
        "spec:\n  ports:\n    - port: {{ .Values.service.port }}\n"
    ),
}

#: Edits that move a small chart's bytes or its ``templates/`` listing.
EDITS = {
    "same-size-edit": lambda root: (root / "values.yaml").write_text(
        SMALL_CHART["values.yaml"].replace("80", "81"), encoding="utf-8"
    ),
    "emptied": lambda root: (root / "values.yaml").write_bytes(b""),
    "deleted": lambda root: (root / "values.yaml").unlink(),
    "renamed-template": lambda root: (root / "templates" / "service.yaml").rename(
        root / "templates" / "svc.yaml"
    ),
    "empty-template-added": lambda root: (root / "templates" / "extra.yaml").write_bytes(b""),
    "version-bump": lambda root: (root / "Chart.yaml").write_text(
        SMALL_CHART["Chart.yaml"].replace("1.2.3", "1.2.4"), encoding="utf-8"
    ),
}


def small_chart(root: Path, templates: bool = True, settled: bool = False) -> Path:
    """Write :data:`SMALL_CHART` to ``root``; ``settled`` backdates every mtime.

    A backdated mtime makes any later write move the file's signature,
    however coarse the filesystem's timestamps.
    """
    written = [root / relative for relative in SMALL_CHART
               if templates or not relative.startswith("templates/")]
    for path in written:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(SMALL_CHART[path.relative_to(root).as_posix()], encoding="utf-8")
    if settled:
        old = time.time_ns() - 10 * delta_module.RACY_WINDOW_NS
        for path in written + ([root / "templates"] if templates else []):
            os.utime(path, ns=(old, old))
    return root


class TestStatRecordSeesEveryEdit:
    """A rescan reuses a chart only while its stat record vouches for every byte.

    ``racy``: files written just now sit inside the racy window, so the
    rescan reads each one and compares it with its digest.  ``settled``:
    the scan clock is past the window and every mtime predates it, so an
    edit shows as a moved signature or ``templates/`` listing.
    """

    @pytest.fixture(params=["racy", "settled"])
    def settled(self, request):
        if request.param == "settled":
            request.getfixturevalue("aged")
        return request.param == "settled"

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_any_edit_is_read_afresh(self, tmp_path, settled, edit):
        root = small_chart(tmp_path / "charts" / "small", settled=settled)
        first = scan_chart_directory(root.parent)
        again = scan_chart_directory(root.parent, previous=first)
        assert again.stats["reused"] == 1 and again[0] is first[0]
        EDITS[edit](root)
        rescanned = scan_chart_directory(root.parent, previous=again)
        assert rescanned.stats == {"dirs": 1, "reused": 0, "parsed": 1, "load_failed": 0}
        [chart] = rescanned
        assert chart.chart == Chart.from_directory(root)
        assert chart.fingerprint() != first[0].fingerprint()

    def test_templates_directory_appearing_is_read_afresh(self, tmp_path, settled):
        root = small_chart(tmp_path / "charts" / "small", templates=False, settled=settled)
        first = scan_chart_directory(root.parent)
        assert scan_chart_directory(root.parent, previous=first)[0] is first[0]
        (root / "templates").mkdir()
        rescanned = scan_chart_directory(root.parent, previous=first)
        assert rescanned.stats["parsed"] == 1
        # An empty templates/ holds no template: the chart content is the same.
        assert rescanned[0] is not first[0]
        assert rescanned[0].chart == first[0].chart

    def test_moved_directory_is_parsed_again_and_unchanged(self, tmp_path):
        root = tmp_path / "charts"
        small_chart(root / "small")
        evaluator = DeltaEvaluator()
        watch_round(root, evaluator)
        os.replace(root / "small", root / "moved")
        moved = watch_round(root, evaluator)
        # The record belongs to the old directory; equal bytes elsewhere
        # are the same chart, so the delta plan keeps every result.
        assert moved.delta_stats["scan"] == {
            "dirs": 1, "reused": 0, "parsed": 1, "load_failed": 0,
        }
        assert moved.delta_stats["classified"][DELTA_UNCHANGED] == 1
        assert moved.delta_stats["recomputed"] == 0
        assert_matches_scratch(moved, root, "moved directory")


BROKEN = {
    "invalid-yaml": ("values.yaml", b"key: [unclosed\n", "ValuesError"),
    "list-values": ("values.yaml", b"- a\n- b\n", "ValuesError"),
    "invalid-chart-yaml": ("Chart.yaml", b"name: [unclosed\n", "ValuesError"),
    "list-chart-yaml": ("Chart.yaml", b"- not\n- a mapping\n", "ValuesError"),
    # PyYAML's date constructor raises ValueError: still a load failure.
    "invalid-date-values": ("values.yaml", b"when: 2024-13-45\n", "ValuesError"),
    # Past int()'s 4300-digit limit PyYAML's int constructor raises ValueError.
    "long-int-values": ("values.yaml", b"n: " + b"1" * 5000 + b"\n", "ValuesError"),
    "non-utf8-values": ("values.yaml", b"key: \xff\xfe\n", "UnicodeDecodeError"),
    "non-utf8-template": (f"templates/{EXTRA_TEMPLATE}", b"\xc3\x28\n", "UnicodeDecodeError"),
}


class TestBrokenDirectories:
    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_quarantined_then_reread(self, tree, case):
        relative, data, error_type = BROKEN[case]
        victim = tree.names[2]
        path = tree.root / victim / relative
        good = path.read_bytes() if path.exists() else None
        path.write_bytes(data)
        healthy = SAMPLE - 1
        lines: list[str] = []
        evaluator = DeltaEvaluator()

        first = watch_round(tree.root, evaluator, lines=lines)
        [failure] = first.failed
        assert (failure.dataset, failure.name, failure.stage, failure.error_type) == (
            "watch", victim, FAILURE_STAGE_LOAD, error_type
        )
        assert failure.traceback
        assert first.delta_stats["scan"] == {
            "dirs": SAMPLE, "reused": 0, "parsed": healthy, "load_failed": 1,
        }
        assert first.delta_stats["classified"][DELTA_ADDED] == healthy
        assert lines[-1].endswith("1 quarantined")
        assert_matches_scratch(first, tree.root, f"{case} round 1")

        # Still broken: re-read and quarantined again; the healthy charts
        # are reused as a pure no-op round (the victim is not "removed").
        second = watch_round(tree.root, evaluator, lines=lines)
        assert [f.unique_id for f in second.failed] == [failure.unique_id]
        assert second.delta_stats["scan"] == {
            "dirs": SAMPLE, "reused": healthy, "parsed": 0, "load_failed": 1,
        }
        assert second.delta_stats["classified"][DELTA_UNCHANGED] == healthy
        assert second.delta_stats["removed"] == []
        assert second.delta_stats["recomputed"] == 0
        assert not evaluator._last.failed  # the prior state holds no load failure

        if good is None:
            path.unlink()
        else:
            path.write_bytes(good)
        fixed = watch_round(tree.root, evaluator, lines=lines)
        assert not fixed.failed
        assert fixed.delta_stats["scan"]["parsed"] == 1
        assert fixed.delta_stats["classified"][DELTA_ADDED] == 1
        assert_matches_scratch(fixed, tree.root, f"{case} fixed")
        assert "quarantined" not in lines[-1]

    @pytest.mark.parametrize(
        "case", sorted(case for case in BROKEN if BROKEN[case][2] == "ValuesError")
    )
    def test_load_failure_names_its_file(self, tree, case):
        relative, data, _ = BROKEN[case]
        (tree.root / tree.names[2] / relative).write_bytes(data)
        [failure] = watch_round(tree.root, DeltaEvaluator()).failed
        other = "values.yaml" if relative == "Chart.yaml" else "Chart.yaml"
        assert relative in failure.message and other not in failure.message
        assert "<unicode string>" not in failure.message


class TestVanishingMidScan:
    def test_file_vanishing_after_listing_counts_as_absent(self, tree, monkeypatch):
        victim = tree.root / tree.names[3]
        listed = chart_module._entries

        def list_then_delete(path):
            entries = listed(path)
            if Path(path) == victim:
                (victim / "values.yaml").unlink()
            elif Path(path) == victim / "templates":
                (victim / "templates" / tree.template[tree.names[3]]).unlink()
            return entries

        monkeypatch.setattr(chart_module, "_entries", list_then_delete)
        scan = scan_chart_directory(tree.root)
        assert not scan.failed
        [chart] = [c for c in scan if c.name == tree.names[3]]
        monkeypatch.undo()
        assert chart.chart == Chart.from_directory(victim)
        assert chart.chart.values == {}

    def test_directory_vanishing_after_listing_counts_as_absent(self, tree, monkeypatch):
        listed = delta_module._chart_directories

        def list_then_delete(base):
            directories = listed(base)
            shutil.rmtree(directories[1])
            return directories

        monkeypatch.setattr(delta_module, "_chart_directories", list_then_delete)
        scan = scan_chart_directory(tree.root)
        assert not scan.failed
        assert scan.stats == {"dirs": SAMPLE - 1, "reused": 0, "parsed": SAMPLE - 1,
                              "load_failed": 0}


@pytest.mark.slow
class TestFullCatalogueWatch:
    def test_edit_stream_over_the_catalogue(self, tmp_path):
        tree = ChartTree(tmp_path / "charts", build_catalog())
        run_stream(tree, edit_stream(tree, random.Random(90210), random_rounds=4))

    def test_edit_stream_over_the_aged_catalogue(self, tmp_path, aged):
        tree = ChartTree(tmp_path / "charts", build_catalog())
        run_stream(tree, edit_stream(tree, random.Random(90210), random_rounds=4))
