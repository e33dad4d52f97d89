"""Differential suite: structured render == text render, always.

The dict-native render path (``render_chart(structured=True)``, the
default) must be a *pure acceleration* of the classic text pipeline:
identical documents, identical typed objects, identical downstream reports,
snapshots and reachability surfaces.  This suite proves it four ways:

* over the **whole 290-chart catalogue** -- documents/objects per chart,
  with and without the Figure 4b policy overrides;
* through the **analysis pipeline** -- canonical reports, double snapshots
  and all-pairs reachability surfaces computed from structured renders diff
  clean against the text-rendered reference;
* over **Hypothesis-generated app specs** -- arbitrary injection plans and
  archetypes;
* over **adversarial templates** -- multi-document sources, ``toYaml``
  nested in text context, empty and non-mapping documents, placeholder
  collisions, scalar-resolution corner cases: everything designed to force
  the splicer, the fast subset parser, or their fallbacks off the happy
  path.

Comparisons of pipeline artefacts go through the shared canonical differ in
``tests/support/diffing.py``.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import AnalysisSession, Cluster, OBSERVE_FAST
from repro.core import AnalyzerSettings, MisconfigurationAnalyzer
from repro.datasets import InjectionPlan, build_application, build_catalog
from repro.helm import Chart, TemplateEngine, render_chart, shared_render_cache
from repro.helm.structured import PLACEHOLDER_PREFIX, assemble_documents, parse_simple_yaml
from repro.k8s.errors import ParseError
from repro.k8s.yamlio import yaml_load_all

from tests.support.diffing import (
    assert_identical,
    canonical_observation,
    canonical_report,
    canonical_surface,
)

ARCHETYPES = ("web", "database", "monitoring", "messaging", "pipeline", "microservices")


def assert_render_equivalent(chart, overrides=None, release_name=None):
    """Both render paths must produce dict-identical output for ``chart``."""
    text = render_chart(
        chart, release_name=release_name, overrides=overrides, cached=False, structured=False
    )
    structured = render_chart(
        chart, release_name=release_name, overrides=overrides, cached=False, structured=True
    )
    assert structured.documents == text.documents
    assert structured.objects == text.objects
    assert structured.values == text.values
    assert structured.release == text.release
    assert set(structured.sources) == set(text.sources)
    return structured


def template_documents(source: str, context: dict, structured: bool) -> list:
    """Render one template source to documents via either path."""
    engine = TemplateEngine()
    if structured:
        fragments = engine.render_fragments(source, dict(context), "test.yaml")
        documents, _ = assemble_documents(fragments, "test.yaml")
        return documents
    rendered = engine.render(source, dict(context), "test.yaml")
    if not rendered.strip():
        return []
    return [document for document in yaml_load_all(rendered) if document]


def assert_template_equivalent(source: str, context: dict) -> list:
    """Both paths must produce identical documents for one template."""
    text_docs = template_documents(source, context, structured=False)
    structured_docs = template_documents(source, context, structured=True)
    assert structured_docs == text_docs
    return structured_docs


@pytest.fixture
def text_fallbacks(monkeypatch):
    """Record the source name of every group that takes the text fallback."""
    from repro.helm import structured

    calls = []
    reference_fallback = structured._parse_text_fallback

    def counted_fallback(group, source_name):
        calls.append(source_name)
        return reference_fallback(group, source_name)

    monkeypatch.setattr(structured, "_parse_text_fallback", counted_fallback)
    return calls


# ---------------------------------------------------------------------------
# Whole-catalogue conformance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog_apps():
    return build_catalog()


@pytest.mark.slow
def test_catalogue_structured_equals_text(catalog_apps):
    """Dict-identical documents/objects for every chart of the catalogue."""
    for app in catalog_apps:
        assert_render_equivalent(app.chart)


def test_cold_catalogue_parses_one_skeleton_per_shape(catalog_apps, text_fallbacks):
    """Chart values stay out of skeleton text: a cold structured render of
    the whole catalogue parses one skeleton per template shape, and no
    document group falls back to the text path."""
    from repro.helm import clear_skeleton_parse_memo, skeleton_parse_count

    clear_skeleton_parse_memo()
    before = skeleton_parse_count()
    for app in catalog_apps:
        render_chart(app.chart, cached=False)
    assert len(catalog_apps) == 290
    assert skeleton_parse_count() - before <= 14
    assert text_fallbacks == []


def test_clear_skeleton_parse_memo_drops_the_value_run_memo():
    from repro.helm import clear_skeleton_parse_memo
    from repro.helm import structured

    assert_template_equivalent("value: {{ .Values.x }}\n", {"Values": {"x": "run"}})
    assert "run" in structured._RUN_MEMO
    clear_skeleton_parse_memo()
    assert structured._RUN_MEMO == {} and structured._SKELETON_MEMO == {}


@pytest.mark.slow
def test_catalogue_structured_equals_text_with_policy_overrides(catalog_apps):
    """The Figure 4b force-enable override renders identically too."""
    overrides = {"networkPolicy": {"enabled": True}}
    for app in catalog_apps:
        if app.defines_network_policies:
            assert_render_equivalent(app.chart, overrides=overrides)


@pytest.mark.slow
def test_catalogue_reports_identical_from_structured_renders(catalog_apps):
    """Analyzer reports from structured renders == reports from text renders."""
    analyzer = MisconfigurationAnalyzer(settings=AnalyzerSettings())
    for app in catalog_apps:
        expected = canonical_report(
            analyzer.analyze_chart(
                app.chart,
                behaviors=app.behaviors,
                dataset=app.dataset,
                rendered=render_chart(app.chart, cached=False, structured=False),
            )
        )
        actual = canonical_report(
            analyzer.analyze_chart(
                app.chart,
                behaviors=app.behaviors,
                dataset=app.dataset,
                rendered=render_chart(app.chart, cached=False, structured=True),
            )
        )
        assert_identical(expected, actual, label=f"report/{app.dataset}/{app.name}")


@pytest.mark.slow
def test_catalogue_snapshots_identical_from_structured_renders(catalog_apps):
    """Install-free double snapshots taken from structured renders diff clean."""
    session = AnalysisSession(observe_mode=OBSERVE_FAST)
    for app in catalog_apps:
        reference = canonical_observation(
            session.observe(render_chart(app.chart, cached=False, structured=False),
                            app.behaviors)
        )
        actual = canonical_observation(
            session.observe(render_chart(app.chart, cached=False, structured=True),
                            app.behaviors)
        )
        assert_identical(reference, actual, label=f"snapshot/{app.dataset}/{app.name}")


@pytest.mark.slow
def test_reachability_surfaces_identical_from_structured_renders(catalog_apps):
    """All-pairs surfaces of installed structured renders match the text path."""
    overrides = {"networkPolicy": {"enabled": True}}
    checked = 0
    for app in catalog_apps:
        if not app.defines_network_policies:
            continue
        text_cluster = Cluster(name="surface", behaviors=app.behaviors)
        text_cluster.install(
            render_chart(app.chart, overrides=overrides, cached=False, structured=False)
        )
        expected = canonical_surface(text_cluster.reachability_matrix().all_pairs())
        structured_cluster = Cluster(name="surface", behaviors=app.behaviors)
        structured_cluster.install(
            render_chart(app.chart, overrides=overrides, cached=False, structured=True)
        )
        actual = canonical_surface(structured_cluster.reachability_matrix().all_pairs())
        assert_identical(expected, actual, label=f"surface/{app.dataset}/{app.name}")
        checked += 1
        if checked >= 60:  # plenty of coverage; installs dominate otherwise
            break
    assert checked >= 50


@pytest.mark.slow
def test_vectorized_surfaces_equal_grouped_over_catalogue(catalog_apps):
    """Bitset-vectorized all-pairs == the naive reference scan, byte-identical,
    over the catalogue's policy-bearing charts (both loopback modes)."""
    overrides = {"networkPolicy": {"enabled": True}}
    checked = 0
    for app in catalog_apps:
        if not app.defines_network_policies:
            continue
        cluster, naive_cluster = (
            Cluster(name="vec", behaviors=app.behaviors, compiled_policies=compiled)
            for compiled in (True, False)
        )
        for twin in (cluster, naive_cluster):
            twin.install(render_chart(app.chart, overrides=overrides, cached=False))
        for include_loopback in (False, True):
            naive = naive_cluster.reachability_matrix(
                include_loopback=include_loopback
            ).all_pairs()
            vector = cluster.reachability_matrix(
                include_loopback=include_loopback
            ).all_pairs()
            assert vector == naive, f"{app.dataset}/{app.name}"
        checked += 1
        if checked >= 60:
            break
    assert checked >= 50


# ---------------------------------------------------------------------------
# Hypothesis-generated app specs
# ---------------------------------------------------------------------------


@st.composite
def injection_plans(draw):
    m1 = draw(st.integers(min_value=0, max_value=3))
    return InjectionPlan(
        m1=m1,
        m2=draw(st.integers(min_value=0, max_value=2)),
        m3=draw(st.integers(min_value=0, max_value=2)),
        m4a=draw(st.integers(min_value=0, max_value=1)),
        m4b=draw(st.integers(min_value=0, max_value=1)),
        m4c=draw(st.integers(min_value=0, max_value=1)),
        m5a=draw(st.integers(min_value=0, max_value=1)),
        m5b=draw(st.integers(min_value=0, max_value=m1)),
        m5c=draw(st.integers(min_value=0, max_value=1)),
        m5d=draw(st.integers(min_value=0, max_value=1)),
        m6=draw(st.booleans()),
        m7=draw(st.integers(min_value=0, max_value=1)),
        global_collision=draw(st.booleans()),
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plan=injection_plans(), archetype=st.sampled_from(ARCHETYPES))
def test_generated_specs_render_identically(plan, archetype):
    app = build_application("gen-app", "Gen Org", plan, archetype=archetype)
    assert_render_equivalent(app.chart)


# ---------------------------------------------------------------------------
# Adversarial templates
# ---------------------------------------------------------------------------


class TestMultiDocumentSources:
    def test_static_separators(self):
        source = (
            "kind: A\nname: first\n---\nkind: B\nname: second\n---\nkind: C\nname: third\n"
        )
        docs = assert_template_equivalent(source, {})
        assert [d["kind"] for d in docs] == ["A", "B", "C"]

    def test_separators_inside_range(self):
        source = (
            "{{- range .Values.items }}\n---\nkind: Item\nvalue: {{ . }}\n{{- end }}\n"
        )
        docs = assert_template_equivalent(source, {"Values": {"items": [1, 2, 3]}})
        assert [d["value"] for d in docs] == [1, 2, 3]

    def test_separator_emitted_by_action_output(self):
        # The separator arrives at render time inside a value: the compiler
        # cannot see it, so the scoped parse must still split correctly.
        source = "kind: A\n{{ .Values.blob }}\nkind: B\n"
        context = {"Values": {"blob": "x: 1\n---"}}
        docs = assert_template_equivalent(source, context)
        assert len(docs) == 2

    def test_leading_and_trailing_separators(self):
        assert_template_equivalent("---\nkind: Only\n---\n", {})

    def test_separator_like_text_mid_line_is_not_a_boundary(self):
        source = "note: {{ .Values.x }}---\nkind: A\n"
        assert_template_equivalent(source, {"Values": {"x": "v"}})


class TestToYamlPlacements:
    CONTEXT = {
        "Values": {
            "labels": {"app": "web", "tier": "frontend"},
            "ports": [{"port": 80, "name": "http"}, {"port": 443, "name": "https"}],
            "empty": {},
            "scalar": "just-text",
            "number": 7,
        }
    }

    def test_whole_document_emission(self):
        docs = assert_template_equivalent("{{ toYaml .Values.labels }}\n", self.CONTEXT)
        assert docs == [{"app": "web", "tier": "frontend"}]

    def test_nindent_mapping_under_key(self):
        source = "metadata:\n  labels:\n    {{- toYaml .Values.labels | nindent 4 }}\n"
        assert_template_equivalent(source, self.CONTEXT)

    def test_mapping_splice_followed_by_text_keys(self):
        # The pattern the catalogue's components template uses: a native
        # splice and literal text lines merging into one mapping.
        source = (
            "labels:\n"
            "  {{- toYaml .Values.labels | nindent 2 }}\n"
            "  literal-key: literal-value\n"
        )
        docs = assert_template_equivalent(source, self.CONTEXT)
        assert docs[0]["labels"]["literal-key"] == "literal-value"
        assert docs[0]["labels"]["app"] == "web"

    def test_duplicate_keys_keep_text_path_semantics(self):
        source = (
            "labels:\n"
            "  app: overridden-before\n"
            "  {{- toYaml .Values.labels | nindent 2 }}\n"
        )
        docs = assert_template_equivalent(source, self.CONTEXT)
        assert docs[0]["labels"]["app"] == "web"  # last wins, as in real YAML

    def test_list_value_as_sole_key_value(self):
        source = "ports:\n  {{- toYaml .Values.ports | nindent 2 }}\n"
        docs = assert_template_equivalent(source, self.CONTEXT)
        assert docs[0]["ports"][0]["port"] == 80

    def test_toYaml_in_text_context_mid_line(self):
        # Inline (mid-line) structure cannot own a whole line: the fragment
        # must degrade to text exactly like the classic path.
        source = "value: {{ toYaml .Values.scalar }}\n"
        assert_template_equivalent(source, self.CONTEXT)

    def test_toYaml_scalar_and_number(self):
        assert_template_equivalent(
            "a: {{ toYaml .Values.number }}\nb:\n  {{- toYaml .Values.scalar | nindent 2 }}\n",
            self.CONTEXT,
        )

    def test_empty_mapping_splice(self):
        source = "selector:\n  {{- toYaml .Values.empty | nindent 2 }}\n"
        docs = assert_template_equivalent(source, self.CONTEXT)
        assert docs[0]["selector"] == {}

    def test_scalar_then_sibling_lines_falls_back(self):
        # A scalar placeholder followed by mapping lines at the same indent
        # is invalid YAML with placeholders but valid(ish) via the text
        # fallback; both paths must behave identically (here: both raise or
        # both parse -- the text is genuinely invalid, so both raise).
        source = (
            "field:\n"
            "  {{- toYaml .Values.scalar | nindent 2 }}\n"
            "  other: value\n"
        )
        from repro.helm.errors import RenderError

        chart_kwargs = dict(templates={"bad.yaml": source})
        text_chart = Chart.from_files("adv-text", **chart_kwargs)
        structured_chart = Chart.from_files("adv-structured", **chart_kwargs)
        with pytest.raises(RenderError):
            render_chart(text_chart, cached=False, structured=False)
        with pytest.raises(RenderError):
            render_chart(structured_chart, cached=False, structured=True)

    def test_text_glued_after_mapping_splice_falls_back(self):
        # Literal text fused onto the same output line as a mapping toYaml:
        # only the text path can interpret the glue, so the structured path
        # must fall back rather than silently dropping it.
        source = "data:\n  {{- toYaml .Values.m | nindent 2 }}x\n"
        docs = assert_template_equivalent(source, {"Values": {"m": {"a": 1, "b": 2}}})
        assert docs[0]["data"]["b"] == "2x"

    def test_quoted_glue_after_mapping_splice_fails_identically(self):
        from repro.helm.errors import RenderError

        source = "data:\n  {{- toYaml .Values.m | nindent 2 }}x\n"
        values = {"m": {"a": "1", "b": "2"}}  # quoted dump -> '2'x is invalid
        chart_kwargs = dict(templates={"glue.yaml": source})
        with pytest.raises(RenderError):
            render_chart(Chart.from_files("glue-a", values=dict(values), **chart_kwargs),
                         overrides=None, cached=False, structured=False)
        with pytest.raises(RenderError):
            render_chart(Chart.from_files("glue-b", values=dict(values), **chart_kwargs),
                         overrides=None, cached=False, structured=True)

    def test_carriage_return_line_endings(self):
        # CRLF template text: PyYAML treats \r as a line break, the fast
        # subset parser must bail rather than fold it into scalars.
        source = "kind: ConfigMap\r\nmeta:\n  {{- toYaml .Values.m | nindent 2 }}\n"
        docs = assert_template_equivalent(source, {"Values": {"m": {"a": 1}}})
        assert docs[0]["kind"] == "ConfigMap"

    def test_placeholder_prefix_collision_in_rendered_text(self):
        context = {"Values": {"labels": {"app": "web"}, "evil": f"{PLACEHOLDER_PREFIX}0__"}}
        source = (
            "evil: {{ .Values.evil }}\n"
            "labels:\n"
            "  {{- toYaml .Values.labels | nindent 2 }}\n"
        )
        docs = assert_template_equivalent(source, context)
        assert docs[0]["evil"] == f"{PLACEHOLDER_PREFIX}0__"
        assert docs[0]["labels"] == {"app": "web"}

    def test_toYaml_inside_if_and_range(self):
        source = (
            "{{- range .Values.items }}\n"
            "---\n"
            "item:\n"
            "  {{- if .enabled }}\n"
            "  labels:\n"
            "    {{- toYaml .labels | nindent 4 }}\n"
            "  {{- end }}\n"
            "{{- end }}\n"
        )
        context = {
            "Values": {
                "items": [
                    {"enabled": True, "labels": {"a": "1"}},
                    {"enabled": False, "labels": {"b": "2"}},
                ]
            }
        }
        docs = assert_template_equivalent(source, context)
        assert docs == [{"item": {"labels": {"a": "1"}}}, {"item": None}]


class TestEmptyAndNonMappingDocuments:
    def test_whitespace_only_template(self):
        assert assert_template_equivalent("\n  \n\n", {}) == []

    def test_only_separators(self):
        assert assert_template_equivalent("---\n---\n---\n", {}) == []

    def test_null_documents_are_dropped(self):
        assert assert_template_equivalent("null\n---\nkind: A\n---\n~\n", {}) == [
            {"kind": "A"}
        ]

    def test_conditionally_empty_template(self):
        source = "{{- if .Values.enabled }}\nkind: A\n{{- end }}\n"
        assert assert_template_equivalent(source, {"Values": {"enabled": False}}) == []

    def test_non_mapping_top_level_list(self):
        docs = assert_template_equivalent("- 1\n- 2\n---\n- a: 1\n", {})
        assert docs == [[1, 2], [{"a": 1}]]

    def test_non_mapping_top_level_scalar(self):
        assert assert_template_equivalent("just-a-scalar\n", {}) == ["just-a-scalar"]

    def test_non_mapping_toYaml_document(self):
        docs = assert_template_equivalent(
            "{{ toYaml .Values.items }}\n", {"Values": {"items": [1, 2]}}
        )
        assert docs == [[1, 2]]

    def test_non_mapping_document_fails_object_construction_identically(self):
        chart_kwargs = dict(templates={"list.yaml": "- not\n- a\n- mapping\n"})
        with pytest.raises(ParseError):
            render_chart(Chart.from_files("adv-a", **chart_kwargs), cached=False,
                         structured=False)
        with pytest.raises(ParseError):
            render_chart(Chart.from_files("adv-b", **chart_kwargs), cached=False,
                         structured=True)


class TestScalarResolutionParity:
    """The fast subset parser must type plain scalars exactly like PyYAML."""

    @pytest.mark.parametrize(
        "literal",
        [
            "8080", "-5", "+3", "0", "0x1F", "0b101", "010", "08", "1_000",
            "1.5", "-0.5", ".5", "1e5", "1.0e5", ".inf", "-.inf", "._1", "._", "1._",
            "true", "False", "yes", "NO", "on", "Off",
            "null", "Null", "~",
            "plain-string", "a b c", "v1.2.3", "8.15.3", "acme/image-name",
            "2024-01-01", "2024-01-01T00:00:00Z", "07:30",
            '"quoted: with colon"', "'single quoted'",
        ],
    )
    def test_scalar_literal(self, literal):
        assert_template_equivalent(f"value: {literal}\n", {})

    def test_nan_resolves_to_nan_on_both_paths(self):
        import math

        text = template_documents("value: .nan\n", {}, structured=False)
        structured = template_documents("value: .nan\n", {}, structured=True)
        assert math.isnan(text[0]["value"]) and math.isnan(structured[0]["value"])

    @pytest.mark.parametrize(
        "source, expected",
        [
            ('port : "80"\n', {"port": "80"}),
            ("7 : v\n", {7: "v"}),
            ("spec :\n  replicas  : 2\n", {"spec": {"replicas": 2}}),
            ("- name : a\n", [{"name": "a"}]),
        ],
    )
    def test_spaced_key_matches_text_path(self, source, expected):
        assert assert_template_equivalent(source, {}) == [expected]

    def test_leading_byte_order_mark_is_skipped(self):
        source = "\ufeffapiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: bom\n"
        chart = Chart.from_files("adv-bom", templates={"cm.yaml": source})
        rendered = assert_render_equivalent(chart)
        assert rendered.documents[0]["apiVersion"] == "v1"

    def test_inner_byte_order_mark_leaves_the_subset(self):
        from repro.helm.structured import _UnsupportedYaml

        with pytest.raises(_UnsupportedYaml):
            parse_simple_yaml("a: 1\n\ufeffb: 2\n")

    def test_unprintable_character_fails_identically(self):
        from repro.helm.errors import RenderError

        source = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: a\x01b\n"
        for structured in (False, True):
            chart = Chart.from_files(f"adv-ctl-{structured}", templates={"cm.yaml": source})
            with pytest.raises(RenderError):
                render_chart(chart, cached=False, structured=structured)

    @pytest.mark.parametrize(
        "source",
        [
            "# header\nkind: A # trailing\n",
            "a: # empty\n  b: 1  #  two spaces\n",
            "a:\n# at column 0\n  - x # one\n  - # none\n",
            "a: b#c\n",
            "- #c\n  a: 1\n",
        ],
    )
    def test_comment_grammar_matches_pyyaml(self, source, text_fallbacks):
        assert parse_simple_yaml(source) == list(yaml_load_all(source))
        assert_template_equivalent(source, {})
        assert text_fallbacks == []

    @pytest.mark.parametrize(
        "source", ['a: "x # y"\n', "a: 'b' # c\n", 'a: "#fff"\n', "a: it's # c\n"]
    )
    def test_comment_character_beside_a_quote_leaves_the_subset(self, source):
        from repro.helm.structured import _UnsupportedYaml

        with pytest.raises(_UnsupportedYaml):
            parse_simple_yaml(source)
        assert_template_equivalent(source, {})

    def test_value_special_scalar_fails_identically(self):
        # "=" resolves to the YAML value tag, which SafeLoader cannot
        # construct: both render paths must surface the same RenderError.
        from repro.helm.errors import RenderError

        chart_kwargs = dict(templates={"eq.yaml": "value: =\n"})
        with pytest.raises(RenderError):
            render_chart(Chart.from_files("adv-eq-a", **chart_kwargs), cached=False,
                         structured=False)
        with pytest.raises(RenderError):
            render_chart(Chart.from_files("adv-eq-b", **chart_kwargs), cached=False,
                         structured=True)

    @pytest.mark.parametrize("source", ["value: <<\n", "value: {{ .Values.x }}\n"])
    def test_merge_key_as_a_value_fails_identically(self, source):
        # "<<" resolves to the merge tag, which SafeLoader refuses as a value.
        from repro.helm.errors import RenderError

        for structured in (False, True):
            chart = Chart.from_files(f"adv-merge-{structured}", values={"x": "<<"},
                                     templates={"merge.yaml": source})
            with pytest.raises(RenderError):
                render_chart(chart, cached=False, structured=structured)

    def test_fast_parser_handles_catalogue_shapes(self):
        # Sanity: the common shapes stay on the fast path (no exception).
        parsed = parse_simple_yaml(
            "apiVersion: apps/v1\n"
            "kind: Deployment\n"
            "metadata:\n"
            "  name: web\n"
            "spec:\n"
            "  replicas: 2\n"
            "  ports:\n"
            "    - containerPort: 8080\n"
            "      name: http\n"
            "  ingress:\n"
            "    - {}\n"
        )
        assert parsed[0]["spec"]["replicas"] == 2
        assert parsed[0]["spec"]["ingress"] == [{}]


class TestScalarInterpolationMemo:
    """Interpolated scalars must become placeholders, not memo-busting text.

    Before the scalar-fragment fix, ``name: {{ .Values.name }}`` baked the
    rendered value into the skeleton, so every name variant forced a fresh
    PyYAML parse and the skeleton memo never hit (the Figure 4b sweep
    re-renders the catalogue under per-release name overrides).  These tests
    pin both halves: placeholder substitution stays byte-identical to the
    text path, and the parse count stays flat across value variants.
    """

    VARIANT_SOURCE = (
        "apiVersion: v1\n"
        "kind: Service\n"
        "metadata:\n"
        "  name: {{ .Values.name }}\n"
        "  namespace: {{ .Values.ns }}\n"
        "spec:\n"
        "  ports:\n"
        "    - {{ .Values.port }}\n"
    )

    def test_parse_count_flat_across_value_variants(self):
        from repro.helm import skeleton_parse_count

        engine = TemplateEngine()

        def render_variant(index: int):
            context = {
                "Values": {"name": f"app-{index}", "ns": "prod", "port": 8080 + index}
            }
            fragments = engine.render_fragments(self.VARIANT_SOURCE, context, "svc.yaml")
            return assemble_documents(fragments, "svc.yaml")[0]

        first = render_variant(0)
        before = skeleton_parse_count()
        for index in range(1, 6):
            documents = render_variant(index)
            assert documents[0]["metadata"]["name"] == f"app-{index}"
            assert documents[0]["spec"]["ports"] == [8080 + index]
        assert skeleton_parse_count() == before, (
            "scalar interpolation defeated the skeleton memo"
        )
        assert first[0]["metadata"]["name"] == "app-0"

    @pytest.mark.parametrize("variant_input", ["nameOverride", "release_name"])
    def test_catalogue_name_variants_reuse_skeletons(self, catalog_apps, variant_input):
        # The Figure 4b shape: the same charts re-rendered under different
        # names must not re-parse a single skeleton.  Release names reach
        # ``metadata.name`` glued to other text (``{{ $.Release.Name }}-x``).
        from repro.helm import skeleton_parse_count

        def render_variant(app, variant):
            if variant_input == "nameOverride":
                overrides = {"nameOverride": f"variant-{variant}"}
                return render_chart(app.chart, overrides=overrides, cached=False)
            return render_chart(app.chart, release_name=f"variant-{variant}", cached=False)

        sample = catalog_apps[:8]
        for app in sample:
            render_variant(app, 0)
        before = skeleton_parse_count()
        for variant in range(1, 4):
            for app in sample:
                rendered = render_variant(app, variant)
        assert skeleton_parse_count() == before, (
            "name-variant re-renders forced fresh skeleton parses"
        )
        if variant_input == "release_name":
            names = [document["metadata"]["name"] for document in rendered.documents]
            assert names and all(name.startswith("variant-3-") for name in names)

    @pytest.mark.parametrize(
        "value",
        [
            "plain", "a b c", "v1.2.3", "8080", "-5", "1.5", ".inf", "true",
            "null", "~", "2024-01-01", "07:30", "0x1F", "010", "",
            "  padded  ", "with: colon", "# not a comment", "[1, 2]",
            "{a: 1}", '"quoted"', "'single'", "- leading dash", "-",
            "--- doc", "multi\nline", "tab\there", "*anchor", "&ref", "!tag",
            "| block", "> folded", "%directive", "@at", "`tick", "a, b", "x}",
        ],
    )
    def test_interpolated_scalar_matches_text_path(self, value):
        # Both mapping-value and list-item contexts, the two placements the
        # placeholder fast path accepts; anything it cannot type must fall
        # back to byte-identical text behaviour, never diverge.
        context = {"Values": {"x": value}}
        for source in (
            "value: {{ .Values.x }}\n",
            "items:\n  - {{ .Values.x }}\n",
            # A value position inside a multi-line flow mapping, where a
            # plain scalar ends at the first flow indicator.
            "flow: {a: {{ .Values.x }}\n  }\n",
        ):
            try:
                text_docs = template_documents(source, context, structured=False)
            except Exception:
                # The raw yaml_load_all helper surfaces ScannerError where the
                # structured assembler wraps it in RenderError (as the real
                # text pipeline does); parity here means both must fail.
                with pytest.raises(Exception):
                    template_documents(source, context, structured=True)
                continue
            assert template_documents(source, context, structured=True) == text_docs

    def test_interpolated_scalar_mid_line_stays_text(self):
        source = "value: prefix-{{ .Values.x }}-suffix\n"
        docs = assert_template_equivalent(source, {"Values": {"x": "mid"}})
        assert docs[0]["value"] == "prefix-mid-suffix"

    def test_interpolated_scalar_as_key_falls_back(self):
        source = "{{ .Values.k }}: value\n"
        docs = assert_template_equivalent(source, {"Values": {"k": "dynamic"}})
        assert docs[0]["dynamic"] == "value"


def skeleton_of(source: str, context: dict) -> str:
    """The skeleton text the structured path assembles for one template."""
    fragments = TemplateEngine().render_fragments(source, dict(context), "test.yaml")
    return assemble_documents(fragments, "test.yaml")[1]


class TestValueRuns:
    """A scalar at a whole value position absorbs glued text and scalars up
    to the line break; the joined run is one placeholder when the strict
    resolver can type it and inline text otherwise."""

    @pytest.mark.parametrize(
        "x, y, expected", [(1, 2, 12), ("tr", "ue", True), ("web", "1.2", "web1.2")]
    )
    def test_run_resolves_as_one_scalar(self, x, y, expected, text_fallbacks):
        context = {"Values": {"x": x, "y": y}}
        source = "value: {{ .Values.x }}{{ .Values.y }}\n"
        assert assert_template_equivalent(source, context) == [{"value": expected}]
        assert skeleton_of(source, context) == f"value: {PLACEHOLDER_PREFIX}0__\n"
        assert text_fallbacks == []

    def test_list_item_run_with_glued_text(self, text_fallbacks):
        context = {"Values": {"x": "rel", "y": "web"}}
        source = "items:\n  - {{ .Values.x }}-{{ .Values.y }}\n  - last\n"
        docs = assert_template_equivalent(source, context)
        assert docs == [{"items": ["rel-web", "last"]}]
        assert PLACEHOLDER_PREFIX in skeleton_of(source, context)
        assert text_fallbacks == []

    @pytest.mark.parametrize(
        "source, x, y, expected",
        [
            ("value: {{ .Values.x }}:{{ .Values.y }}\n", 1, 30, 90),  # sexagesimal
            ("value: {{ .Values.x }}-01\n", "2024-01", None, datetime.date(2024, 1, 1)),
            ("value: {{ .Values.x }} #{{ .Values.y }}\n", "a", "comment", "a"),
            ("value: {{ .Values.x }}#{{ .Values.y }}\n", "a", "b", "a#b"),
            ('value: "{{ .Values.x }}-{{ .Values.y }}"\n', "a", "b", "a-b"),
            ("value: {{ .Values.x | quote }}{{ .Values.y }}\n", "a\\b", "", "a\b"),
            ("value: {{ .Values.x }}, {{ .Values.y }}\n", "a", "b", "a, b"),
        ],
    )
    def test_run_that_must_stay_text(self, source, x, y, expected):
        context = {"Values": {"x": x, "y": y}}
        assert assert_template_equivalent(source, context) == [{"value": expected}]
        assert PLACEHOLDER_PREFIX not in skeleton_of(source, context)

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            ("a", "b\nother: c", {"value": "ab", "other": "c"}),
            ("a\nother: c", "b", {"value": "a", "other": "cb"}),
            ("a", "\nother: c", {"value": "a", "other": "c"}),
        ],
    )
    def test_run_cut_by_a_scalar_with_a_newline(self, x, y, expected):
        source = "value: {{ .Values.x }}{{ .Values.y }}\nlast: 1\n"
        docs = assert_template_equivalent(source, {"Values": {"x": x, "y": y}})
        assert docs == [{**expected, "last": 1}]

    def test_run_ended_by_toYaml_with_nindent(self, text_fallbacks):
        source = "key: {{ .Values.x }}{{ toYaml .Values.m | nindent 0 }}\n"
        context = {"Values": {"x": "v", "m": {"b": 1}}}
        docs = assert_template_equivalent(source, context)
        assert docs == [{"key": "v", "b": 1}]
        assert skeleton_of(source, context).count(PLACEHOLDER_PREFIX) == 2
        assert text_fallbacks == []

    @pytest.mark.parametrize("stage, expected", [("", "vw"), (" | indent 2", "v  w")])
    def test_run_ended_by_toYaml_without_nindent(self, stage, expected):
        source = "key: {{ .Values.x }}{{ toYaml .Values.s" + stage + " }}\n"
        context = {"Values": {"x": "v", "s": "w"}}
        assert assert_template_equivalent(source, context) == [{"key": expected}]
        assert PLACEHOLDER_PREFIX not in skeleton_of(source, context)

    def test_duplicate_key_drops_a_scalar_placeholder(self, text_fallbacks):
        source = "labels:\n  a: {{ .Values.x }}\n  a: {{ .Values.y }}\n"
        docs = assert_template_equivalent(source, {"Values": {"x": "first", "y": "second"}})
        assert docs == [{"labels": {"a": "second"}}]
        assert text_fallbacks == []

    def test_duplicate_key_dropping_a_mapping_placeholder_falls_back(self, text_fallbacks):
        source = "labels:\n  {{- toYaml .Values.m | nindent 2 }}\nlabels:\n  b: 2\n"
        docs = assert_template_equivalent(source, {"Values": {"m": {"a": 1}}})
        assert docs == [{"labels": {"b": 2}}]
        assert text_fallbacks == ["test.yaml"]

    def test_token_inside_a_comment(self, text_fallbacks):
        # Comments leave the subset parser, and PyYAML may hide a token
        # where the real text means something else: strict again.
        source = "# note: {{ .Values.x }}\nkind: A\n  # - {{ .Values.y }}\n"
        docs = assert_template_equivalent(source, {"Values": {"x": "v", "y": 7}})
        assert docs == [{"kind": "A"}]
        assert text_fallbacks == ["test.yaml"]

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("data: !!omap\n  - a: {{ .Values.x }}\n", {"data": [("a", "v")]}),
            ("data: !!pairs\n  - a: {{ .Values.x }}\n", {"data": [("a", "v")]}),
            ("data: !!set\n  a: {{ .Values.x }}\n", {"data": {"a"}}),
            ("data: !!omap\n  - a: {{ .Values.x }}\nkind: A\n", {"data": [("a", "v")], "kind": "A"}),
        ],
    )
    def test_token_inside_a_tuple_or_set_falls_back(self, source, expected, text_fallbacks):
        docs = assert_template_equivalent(source, {"Values": {"x": "v"}})
        assert docs == [expected]
        assert text_fallbacks == ["test.yaml"]

    def test_dropped_token_in_a_quoted_scalar_the_glue_closed_falls_back(self, text_fallbacks):
        # The run absorbs the closing quote, so in the skeleton the quoted
        # scalar runs on over ``m`` and a later duplicate key drops it: the
        # token goes missing where the real text keeps ``m``.
        source = 'k: "a: {{ .Values.x }}"\nm: 1"\nk: 2\n'
        docs = assert_template_equivalent(source, {"Values": {"x": "v"}})
        assert docs == [{"k": 2, "m": '1"'}]
        assert text_fallbacks == ["test.yaml"]

    def test_token_fused_into_a_key_falls_back(self, text_fallbacks):
        # An explicit key spanning a value-position line: the token lands
        # inside a key, which only the text path can interpret.
        source = "? a\n  - {{ .Values.x }}\n: v\n"
        docs = assert_template_equivalent(source, {"Values": {"x": "w"}})
        assert docs == [{"a - w": "v"}]
        assert text_fallbacks == ["test.yaml"]


class TestFragmentIncludes:
    """A statement-level ``include`` emits the define's fragment stream."""

    HELPERS = (
        '{{- define "labels" -}}\n'
        "part-of: {{ .Chart.Name }}\n"
        "chart: {{ .Chart.Name }}-{{ .Chart.Version }}\n"
        "{{- end }}\n"
    )

    def test_included_scalars_become_placeholders(self, text_fallbacks):
        source = self.HELPERS + (
            "metadata:\n"
            "  labels:\n"
            "    part-of: {{ .Values.owner }}\n"
            '    {{- include "labels" . | nindent 4 }}\n'
        )
        context = {"Chart": {"Name": "demo", "Version": "1.0"}, "Values": {"owner": "x"}}
        docs = assert_template_equivalent(source, context)
        assert docs == [{"metadata": {"labels": {"part-of": "demo", "chart": "demo-1.0"}}}]
        skeleton = skeleton_of(source, context)
        assert "demo" not in skeleton and skeleton.count(PLACEHOLDER_PREFIX) == 3
        assert text_fallbacks == []

    def test_include_inside_a_pipeline_keeps_its_string_value(self):
        source = self.HELPERS + (
            'quoted: {{ include "labels" . | quote }}\n'
            'short: {{ include "labels" . | trunc 7 }}\n'
        )
        docs = assert_template_equivalent(source, {"Chart": {"Name": "d", "Version": "1"}})
        assert docs == [{"quoted": "part-of: d chart: d-1", "short": "part-of"}]

    def test_undefined_define_raises_the_same_template_error(self):
        from repro.helm.errors import TemplateError

        source = 'labels:\n  {{- include "missing" . | nindent 2 }}\n'
        messages = []
        for structured in (False, True):
            with pytest.raises(TemplateError) as caught:
                template_documents(source, {}, structured=structured)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "'missing' is not defined" in messages[0]

    @settings(max_examples=60, deadline=None)
    @given(
        pieces=st.lists(
            st.sampled_from([
                "key: ", "text", "\n", "\n\n", "  ", "- ",
                "{{ .Values.s }}", "{{ .Values.multi }}", "{{ .Values.empty }}",
                "{{ toYaml .Values.m }}", "\n---\n", '{{ include "inner" . }}',
                '{{ include "inner" . | indent 3 }}',
            ]),
            max_size=12,
        ),
        stage=st.sampled_from(["nindent", "indent"]),
        width=st.integers(min_value=0, max_value=6),
    )
    def test_statement_include_matches_indented_string(self, pieces, stage, width):
        from repro.helm.template import RenderContext, _indent, fragments_text

        source = (
            '{{- define "inner" -}}in: {{ .Values.s }}\n\nx{{- end -}}'
            '{{- define "body" -}}' + "".join(pieces) + "{{- end -}}"
            '{{ include "body" . | ' + f"{stage} {width}" + " }}"
        )
        context = {
            "Values": {"s": "v", "multi": "a\n\nb\n", "empty": "", "m": {"k": [1, 2]}}
        }
        engine = TemplateEngine()
        stream = engine.render_fragments(source, context, "prop.yaml")
        included = engine.include("body", context, RenderContext(context))
        expected = _indent(width, included)
        if stage == "nindent":
            expected = "\n" + expected
        assert fragments_text(stream) == expected
        assert engine.render(source, context, "prop.yaml") == expected


class TestFromYamlNative:
    def test_from_yaml_of_to_yaml_roundtrip(self):
        source = (
            "{{- $copy := fromYaml (toYaml .Values.cfg) }}\n"
            "a: {{ $copy.key }}\n"
            "nested:\n"
            "  {{- toYaml $copy | nindent 2 }}\n"
        )
        assert_template_equivalent(source, {"Values": {"cfg": {"key": "v", "n": [1, 2]}}})

    def test_piped_pair_collapses_identically(self):
        source = "{{- $copy := .Values.cfg | toYaml | fromYaml }}\nkey: {{ $copy.key }}\n"
        assert_template_equivalent(source, {"Values": {"cfg": {"key": 7}}})

    def test_undumpable_value_raises_render_error_on_both_paths(self):
        from repro.helm.errors import RenderError

        class Opaque:
            pass

        source = "{{- if .Values.x | toYaml | fromYaml }}y: 1\n{{- end }}\n"
        for structured in (False, True):
            chart = Chart.from_files(
                f"opaque-{structured}",
                values={"x": {"a": Opaque()}},
                templates={"t.yaml": source},
            )
            with pytest.raises(RenderError):
                render_chart(chart, cached=False, structured=structured)

    def test_resolver_sensitive_string_stays_text_equivalent(self):
        # "2024-01-01" re-types through YAML; the native peephole must not
        # short-circuit that.
        engine_a, engine_b = TemplateEngine(), TemplateEngine()
        source = "{{- $v := .Values.s | toYaml | fromYaml }}{{ kindIs \"string\" $v }}"
        context = {"Values": {"s": "2024-01-01"}}
        assert engine_a.render(source, context) == engine_b.render(source, context)


class TestTextPathIsUncached:
    def test_text_render_never_touches_the_cache(self):
        app = build_application("cache-mix", "Org", InjectionPlan(m1=1, m6=True))
        shared = shared_render_cache()
        shared.clear()
        text = render_chart(app.chart, structured=False)  # cached defaults to True
        assert shared.stats() == {"hits": 0, "misses": 0, "corruptions": 0, "entries": 0}
        structured = render_chart(app.chart)
        assert shared.stats()["misses"] == 1
        assert structured.documents == text.documents
        assert structured.objects == text.objects
        # The text path renders afresh every time, even with a structured entry cached.
        again = render_chart(app.chart, structured=False)
        assert again is not text and again.documents == text.documents
        assert shared.stats()["hits"] == 0
