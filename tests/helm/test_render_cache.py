"""Render-cache correctness: keying, hit semantics, and warm-path guards.

The memoized render pipeline must be a pure acceleration: cached renders are
indistinguishable from fresh ones (the differential test sweeps the full
catalogue), cache keys are content-based (equal-but-not-identical values
dicts share an entry; any mutation misses), and a warm render performs no
template re-parsing at all (parse-counter guard).  Hits hand out sealed
interned objects by reference behind fresh top-level containers (mutation
raises, sharing cannot be corrupted); the reference they are diffed against
is the uncached, un-interned render.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.datasets import build_application, build_catalog
from repro.datasets.spec import InjectionPlan
from repro.helm import (
    Chart,
    RenderCache,
    clear_template_cache,
    render_chart,
    shared_render_cache,
    template_parse_count,
)
from repro.k8s import ImmutableObjectError


def _app():
    return build_application(
        name="cache-app",
        organization="Cache Org",
        plan=InjectionPlan(m1=2, m3=1, m5a=1, m6=True),
        archetype="messaging",
        dataset="Cache",
    )


@pytest.fixture
def cache() -> RenderCache:
    return RenderCache()


class TestCacheKeying:
    def test_equal_but_not_identical_values_hit(self, cache: RenderCache):
        chart = _app().chart
        overrides = {"networkPolicy": {"enabled": True}, "extra": [1, 2, {"a": "b"}]}
        cache.render(chart, overrides=overrides)
        assert cache.stats()["misses"] == 1
        cache.render(chart, overrides=copy.deepcopy(overrides))
        assert cache.stats() == {"hits": 1, "misses": 1, "corruptions": 0, "entries": 1}
        # Key order must not matter either.
        reordered = {"extra": [1, 2, {"a": "b"}], "networkPolicy": {"enabled": True}}
        cache.render(chart, overrides=reordered)
        assert cache.stats()["hits"] == 2

    def test_mutated_values_miss(self, cache: RenderCache):
        chart = _app().chart
        overrides = {"networkPolicy": {"enabled": True}}
        cache.render(chart, overrides=overrides)
        overrides["networkPolicy"]["enabled"] = False
        rendered = cache.render(chart, overrides=overrides)
        assert cache.stats() == {"hits": 0, "misses": 2, "corruptions": 0, "entries": 2}
        assert not rendered.objects_of_kind("NetworkPolicy")

    def test_chart_content_mutation_misses(self, cache: RenderCache):
        chart = _app().chart
        cache.render(chart)
        chart.add_template("extra.yaml", "apiVersion: v1\nkind: Namespace\nmetadata:\n  name: extra\n")
        rendered = cache.render(chart)
        assert cache.stats()["misses"] == 2
        assert any(obj.kind == "Namespace" for obj in rendered.objects)

    def test_rebuilt_chart_with_same_content_hits(self, cache: RenderCache):
        cache.render(_app().chart)
        cache.render(_app().chart)  # fresh object, identical content
        assert cache.stats() == {"hits": 1, "misses": 1, "corruptions": 0, "entries": 1}


PORTS_TEMPLATE = """\
apiVersion: v1
kind: ConfigMap
metadata:
  name: {{ .Release.Name }}-ports
data:
  order: "{{ range $name, $port := .Values.ports }}{{ $name }}={{ $port }};{{ end }}"
ports:
  {{- toYaml .Values.ports | nindent 2 }}
"""

HTTP_FIRST = {"ports": {"http": 80, "admin": 9090}}
ADMIN_FIRST = {"ports": {"admin": 9090, "http": 80}}


def _ports_chart(values=None) -> Chart:
    return Chart.from_files(
        "ports", values=copy.deepcopy(values), templates={"ports.yaml": PORTS_TEMPLATE}
    )


def _documents_in_order(rendered) -> str:
    """The documents as JSON with key order kept, so an order difference shows."""
    return json.dumps(rendered.documents)


class TestValuesKeyOrder:
    """Values equal up to key order render alike, sorted as Helm's maps are.

    Rendered in either order within one process, cached and uncached.
    """

    @pytest.mark.parametrize(
        "orders", [(HTTP_FIRST, ADMIN_FIRST), (ADMIN_FIRST, HTTP_FIRST)], ids=["http", "admin"]
    )
    def test_reordered_chart_values_render_alike(self, cache: RenderCache, orders):
        rendered_orders = []
        for values in orders:
            chart = _ports_chart(values)
            fresh = render_chart(chart, cached=False)
            assert _documents_in_order(cache.render(chart)) == _documents_in_order(fresh)
            rendered_orders.append(fresh.documents[0]["data"]["order"])
        assert rendered_orders == ["admin=9090;http=80;"] * 2
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize(
        "orders", [(HTTP_FIRST, ADMIN_FIRST), (ADMIN_FIRST, HTTP_FIRST)], ids=["http", "admin"]
    )
    def test_reordered_overrides_render_alike(self, cache: RenderCache, orders):
        chart = _ports_chart()
        rendered_orders = []
        for overrides in orders:
            fresh = render_chart(chart, overrides=copy.deepcopy(overrides), cached=False)
            cached = cache.render(chart, overrides=copy.deepcopy(overrides))
            assert _documents_in_order(cached) == _documents_in_order(fresh)
            rendered_orders.append(fresh.documents[0]["data"]["order"])
        assert rendered_orders == ["admin=9090;http=80;"] * 2
        assert cache.stats()["hits"] == 1


def _configmap_chart(data_line: str, values=None) -> Chart:
    """One ConfigMap whose ``data`` holds ``data_line``."""
    template = (
        "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: order\ndata:\n"
        f"  {data_line}\n"
    )
    return Chart.from_files("order", values=values, templates={"cm.yaml": template})


def _renders(cache: RenderCache, chart: Chart, structured: bool, overrides=None):
    """The uncached render on one render path, and the cached one on the structured path."""
    fresh = render_chart(chart, overrides=overrides, cached=False, structured=structured)
    if not structured:
        return (fresh,)
    return fresh, cache.render(chart, overrides=overrides)


class TestBuiltMapKeyOrder:
    """Maps built by templates and merges iterate sorted, as Helm's do.

    Each case renders uncached on both render paths, and cached on the
    structured path, the only one the cache holds.
    """

    CASES = {
        "dict": ('x: "{{ range $k, $v := dict "b" 1 "a" 2 }}{{ $k }};{{ end }}"', "a;b;"),
        "fromYaml": (
            'x: "{{ range $k, $v := fromYaml "{zz: 1, aa: 2}" }}{{ $k }};{{ end }}"',
            "aa;zz;",
        ),
        "toYaml": ('x: {{ toYaml (dict "zz" "1" "aa" "2") | quote }}', "aa: '2' zz: '1'"),
    }

    @pytest.mark.parametrize("structured", [True, False], ids=["structured", "text"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_template_built_maps_iterate_sorted(self, cache: RenderCache, case, structured):
        line, expected = self.CASES[case]
        for rendered in _renders(cache, _configmap_chart(line), structured):
            assert rendered.documents[0]["data"]["x"] == expected

    @pytest.mark.parametrize("structured", [True, False], ids=["structured", "text"])
    def test_override_keys_take_their_sorted_place(self, cache: RenderCache, structured):
        chart = _configmap_chart(
            'x: "{{ range $k, $v := .Values }}{{ $k }};{{ end }}"', {"c": 1, "a": 2}
        )
        for rendered in _renders(cache, chart, structured, overrides={"b": 3}):
            assert rendered.documents[0]["data"]["x"] == "a;b;c;"
            assert list(rendered.values) == ["a", "b", "c"]

    @pytest.mark.parametrize("structured", [True, False], ids=["structured", "text"])
    def test_global_layer_takes_its_sorted_place(self, cache: RenderCache, structured):
        chart = Chart.from_files("parent", values={"global": {"region": "eu"}})
        chart.add_subchart(
            _configmap_chart(
                'x: "{{ range $k, $v := .Values }}{{ $k }};{{ end }}"', {"a": 1, "z": 2}
            )
        )
        for rendered in _renders(cache, chart, structured):
            assert rendered.documents[0]["data"]["x"] == "a;global;z;"


class TestSharedReferenceHits:
    def test_warm_hits_share_sealed_objects(self):
        cache = RenderCache()
        chart = _app().chart
        first = cache.render(chart)
        second = cache.render(chart)
        assert second.objects == first.objects
        # Hits return the interned objects themselves: no unpickle, no
        # objects_from_dicts, no namespace-defaulting rebuild.
        assert all(a is b for a, b in zip(first.objects, second.objects))
        # ... but the top-level containers are private per call.
        assert first.objects is not second.objects
        second.objects.clear()
        assert cache.render(chart).objects

    def test_shared_objects_reject_mutation(self):
        cache = RenderCache()
        rendered = cache.render(_app().chart)
        with pytest.raises(ImmutableObjectError):
            rendered.objects[0].metadata.namespace = "mutated"
        with pytest.raises(ImmutableObjectError):
            rendered.objects[0].metadata = None


class TestDifferentialFullCatalogue:
    def test_cached_render_equals_fresh_render_across_catalogue(self):
        cache = RenderCache()
        for app in build_catalog():
            fresh = render_chart(app.chart, cached=False)
            via_cache_cold = cache.render(app.chart)
            via_cache_warm = cache.render(app.chart)
            for cached in (via_cache_cold, via_cache_warm):
                assert cached.documents == fresh.documents, app.name
                assert cached.objects == fresh.objects, app.name
                assert cached.sources == fresh.sources, app.name
                assert cached.values == fresh.values, app.name
                assert cached.release == fresh.release, app.name
        assert cache.stats()["hits"] == cache.stats()["misses"]


class TestPrerenderCatalog:
    """Rendering the catalogue ahead warms the shared cache for every later consumer."""

    def test_prerender_warms_shared_cache_for_consumers(self):
        applications = build_catalog(("CNCF",))
        shared = shared_render_cache()
        shared.clear()
        for app in applications:
            render_chart(app.chart, fingerprint=app.fingerprint())
        misses = shared.stats()["misses"]
        # Consumers rendering the same (chart, values) pairs now only hit.
        for app in applications:
            render_chart(app.chart, fingerprint=app.chart.fingerprint())
            render_chart(app.chart)  # fingerprint omitted: same key
        assert shared.stats()["misses"] == misses
        assert shared.stats()["hits"] >= 2 * len(applications)

    def test_prerender_with_overrides_warms_the_override_entry(self):
        applications = build_catalog(("CNCF",))[:3]
        shared = shared_render_cache()
        shared.clear()
        overrides = {"networkPolicy": {"enabled": True}}
        for app in applications:
            render_chart(app.chart, overrides=overrides, fingerprint=app.fingerprint())
        misses = shared.stats()["misses"]
        for app in applications:
            render_chart(app.chart, overrides={"networkPolicy": {"enabled": True}})
        assert shared.stats()["misses"] == misses


class TestWarmPathGuards:
    def test_warm_render_performs_no_template_reparse(self):
        chart = _app().chart
        shared_render_cache().clear()
        render_chart(chart)  # cold: compiles whatever is not yet cached
        parses_before = template_parse_count()
        for _ in range(3):
            render_chart(chart)
        assert template_parse_count() == parses_before

    def test_even_cache_miss_reuses_compiled_templates(self):
        chart = _app().chart
        render_chart(chart, cached=False)  # ensure sources are compiled
        parses_before = template_parse_count()
        # A different release is a render-cache miss, but the template
        # sources are unchanged, so the compile cache must absorb it.
        render_chart(chart, release_name="other-release")
        assert template_parse_count() == parses_before

    def test_template_source_change_reparses(self):
        engine_chart = Chart.from_files(
            name="guard", templates={"cm.yaml": "kind: ConfigMap\nmetadata:\n  name: a\n"}
        )
        render_chart(engine_chart)
        parses_before = template_parse_count()
        engine_chart.templates[0].source = "kind: ConfigMap\nmetadata:\n  name: b\n"
        render_chart(engine_chart)
        assert template_parse_count() == parses_before + 1

    def test_clear_template_cache_forces_reparse(self):
        chart = _app().chart
        render_chart(chart, cached=False)
        clear_template_cache()
        parses_before = template_parse_count()
        render_chart(chart, cached=False)
        assert template_parse_count() > parses_before
