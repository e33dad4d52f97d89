"""Unit tests for the Go-template subset engine."""

import pytest

from repro.helm import (
    TemplateEngine,
    TemplateError,
    clear_template_cache,
    compile_source,
    template_parse_count,
    tokenize_expression,
)
from repro.helm import template as template_module


@pytest.fixture
def engine() -> TemplateEngine:
    return TemplateEngine()


def render(engine: TemplateEngine, source: str, **context) -> str:
    return engine.render(source, context)


class TestTokenizer:
    def test_dotted_path(self):
        assert tokenize_expression(".Values.service.port") == [".Values.service.port"]

    def test_pipeline_tokens(self):
        assert tokenize_expression('.Values.tag | default "latest" | quote') == [
            ".Values.tag", "|", "default", '"latest"', "|", "quote",
        ]

    def test_variable_with_path(self):
        assert tokenize_expression("$comp.ports") == ["$comp.ports"]

    def test_root_relative_path(self):
        assert tokenize_expression("$.Release.Name") == ["$.Release.Name"]

    def test_parentheses(self):
        tokens = tokenize_expression('(eq .Values.mode "dev")')
        assert tokens[0] == "(" and tokens[-1] == ")"

    def test_unknown_characters_raise(self):
        with pytest.raises(TemplateError):
            tokenize_expression(".Values.a @ b")


class TestBasicSubstitution:
    def test_plain_text_is_untouched(self, engine):
        assert render(engine, "hello world") == "hello world"

    def test_value_lookup(self, engine):
        assert render(engine, "{{ .Values.name }}", Values={"name": "web"}) == "web"

    def test_missing_value_renders_empty(self, engine):
        assert render(engine, "[{{ .Values.missing }}]", Values={}) == "[]"

    def test_integer_rendering(self, engine):
        assert render(engine, "{{ .Values.port }}", Values={"port": 8080}) == "8080"

    def test_boolean_rendering(self, engine):
        assert render(engine, "{{ .Values.on }}", Values={"on": True}) == "true"

    def test_release_and_chart_context(self, engine):
        output = render(
            engine, "{{ .Release.Name }}-{{ .Chart.Name }}",
            Release={"Name": "rel"}, Chart={"Name": "app"},
        )
        assert output == "rel-app"

    def test_whitespace_trimming(self, engine):
        source = "a\n  {{- .Values.x }}\n"
        assert render(engine, source, Values={"x": "b"}) == "ab\n"

    def test_comment_action_is_skipped(self, engine):
        assert render(engine, "a{{ /* comment */ }}b") == "ab"


class TestFunctions:
    def test_default_used_when_value_missing(self, engine):
        assert render(engine, '{{ .Values.tag | default "latest" }}', Values={}) == "latest"

    def test_default_ignored_when_value_present(self, engine):
        assert render(engine, '{{ .Values.tag | default "latest" }}', Values={"tag": "1.2"}) == "1.2"

    def test_quote(self, engine):
        assert render(engine, "{{ .Values.image | quote }}", Values={"image": "nginx"}) == '"nginx"'

    def test_upper_lower(self, engine):
        assert render(engine, "{{ upper .Values.x }}{{ lower .Values.y }}",
                      Values={"x": "ab", "y": "CD"}) == "ABcd"

    def test_printf(self, engine):
        assert render(engine, '{{ printf "%s-%s" .Values.a .Values.b }}',
                      Values={"a": "x", "b": "y"}) == "x-y"

    def test_trunc_and_trim_suffix(self, engine):
        output = render(engine, '{{ .Values.name | trunc 6 | trimSuffix "-" }}',
                        Values={"name": "myapp--extra"})
        assert output == "myapp"

    def test_nindent_indents_on_new_line(self, engine):
        output = render(engine, "labels:{{ .Values.labels | toYaml | nindent 2 }}",
                        Values={"labels": {"app": "web"}})
        assert output == "labels:\n  app: web"

    def test_ternary(self, engine):
        assert render(engine, '{{ ternary "on" "off" .Values.flag }}', Values={"flag": True}) == "on"

    def test_required_raises_when_missing(self, engine):
        with pytest.raises(TemplateError):
            render(engine, '{{ required "name is required" .Values.name }}', Values={})

    def test_arithmetic(self, engine):
        assert render(engine, "{{ add .Values.a 5 }}", Values={"a": 2}) == "7"
        assert render(engine, "{{ sub 10 .Values.a }}", Values={"a": 2}) == "8"

    def test_comparison_and_boolean(self, engine):
        assert render(engine, '{{ if eq .Values.env "prod" }}yes{{ end }}',
                      Values={"env": "prod"}) == "yes"
        assert render(engine, "{{ if and .Values.a .Values.b }}both{{ end }}",
                      Values={"a": True, "b": True}) == "both"
        assert render(engine, "{{ if or .Values.a .Values.b }}one{{ end }}",
                      Values={"a": False, "b": True}) == "one"
        assert render(engine, "{{ if not .Values.a }}negated{{ end }}",
                      Values={"a": False}) == "negated"

    def test_nested_parentheses(self, engine):
        output = render(engine, '{{ if (eq (add 1 1) 2) }}math{{ end }}', Values={})
        assert output == "math"

    def test_unknown_function_raises(self, engine):
        with pytest.raises(TemplateError):
            render(engine, "{{ frobnicate .Values }}", Values={})


class TestControlStructures:
    def test_if_else(self, engine):
        source = "{{ if .Values.enabled }}on{{ else }}off{{ end }}"
        assert render(engine, source, Values={"enabled": True}) == "on"
        assert render(engine, source, Values={"enabled": False}) == "off"

    def test_else_if_chain(self, engine):
        source = '{{ if eq .Values.x 1 }}one{{ else if eq .Values.x 2 }}two{{ else }}many{{ end }}'
        assert render(engine, source, Values={"x": 1}) == "one"
        assert render(engine, source, Values={"x": 2}) == "two"
        assert render(engine, source, Values={"x": 3}) == "many"

    def test_if_empty_list_is_false(self, engine):
        assert render(engine, "{{ if .Values.items }}yes{{ else }}no{{ end }}",
                      Values={"items": []}) == "no"

    def test_missing_end_raises(self, engine):
        with pytest.raises(TemplateError):
            render(engine, "{{ if .Values.x }}unclosed", Values={})

    def test_range_over_list(self, engine):
        source = "{{ range .Values.ports }}[{{ . }}]{{ end }}"
        assert render(engine, source, Values={"ports": [80, 443]}) == "[80][443]"

    def test_range_over_dict_with_variables(self, engine):
        source = "{{ range $key, $value := .Values.labels }}{{ $key }}={{ $value }};{{ end }}"
        output = render(engine, source, Values={"labels": {"a": "1", "b": "2"}})
        assert output == "a=1;b=2;"

    def test_range_else_branch(self, engine):
        source = "{{ range .Values.items }}x{{ else }}empty{{ end }}"
        assert render(engine, source, Values={"items": []}) == "empty"

    def test_range_over_scalar_raises(self, engine):
        with pytest.raises(TemplateError):
            render(engine, "{{ range .Values.x }}y{{ end }}", Values={"x": 5})

    def test_with_changes_dot(self, engine):
        source = "{{ with .Values.service }}{{ .port }}{{ end }}"
        assert render(engine, source, Values={"service": {"port": 80}}) == "80"

    def test_with_else_when_falsy(self, engine):
        source = "{{ with .Values.service }}{{ .port }}{{ else }}none{{ end }}"
        assert render(engine, source, Values={}) == "none"

    def test_root_access_inside_range(self, engine):
        source = "{{ range .Values.items }}{{ $.Release.Name }}-{{ . }} {{ end }}"
        output = render(engine, source, Values={"items": ["a", "b"]}, Release={"Name": "rel"})
        assert output == "rel-a rel-b "

    def test_variable_assignment(self, engine):
        source = '{{ $name := .Values.name }}{{ $name }}!'
        assert render(engine, source, Values={"name": "web"}) == "web!"

    def test_variable_with_path_access(self, engine):
        source = "{{ $svc := .Values.service }}{{ $svc.port }}"
        assert render(engine, source, Values={"service": {"port": 8080}}) == "8080"


class TestDefinesAndInclude:
    def test_define_and_include(self, engine):
        source = (
            '{{- define "app.labels" -}}app: {{ .Chart.Name }}{{- end -}}'
            '{{ include "app.labels" . }}'
        )
        assert render(engine, source, Chart={"Name": "demo"}) == "app: demo"

    def test_include_with_nindent(self, engine):
        source = (
            '{{- define "lbl" -}}a: 1\nb: 2{{- end -}}'
            'labels:{{ include "lbl" . | nindent 2 }}'
        )
        assert render(engine, source) == "labels:\n  a: 1\n  b: 2"

    def test_include_unknown_template_raises(self, engine):
        with pytest.raises(TemplateError):
            render(engine, '{{ include "missing" . }}')

    def test_template_keyword_behaves_like_include(self, engine):
        source = '{{- define "x" -}}X{{- end -}}{{ template "x" . }}'
        assert render(engine, source) == "X"

    def test_defines_registered_from_helper_source(self, engine):
        engine.register_source('{{- define "helper.name" -}}helper{{- end -}}', "_helpers.tpl")
        assert render(engine, '{{ include "helper.name" . }}') == "helper"


class TestCompileCacheBound:
    def test_cap_plus_one_sources_keep_cap_entries_and_render(self, engine):
        cap = template_module._COMPILE_CACHE_MAXSIZE
        source = "v{}: {{{{ .Values.x }}}}".format
        clear_template_cache()
        try:
            for index in range(cap + 1):
                compile_source(source(index), "bound.yaml")
            assert len(template_module._COMPILE_CACHE) == cap
            # Insertion-order eviction: the oldest source went, the newest stays.
            assert ("bound.yaml", source(0)) not in template_module._COMPILE_CACHE
            parses = template_parse_count()
            rendered = engine.render(source(cap), {"Values": {"x": 1}}, "bound.yaml")
            assert rendered == f"v{cap}: 1"
            assert template_parse_count() == parses
            # An evicted source recompiles and still renders correctly.
            assert engine.render(source(0), {"Values": {"x": 2}}, "bound.yaml") == "v0: 2"
            assert template_parse_count() == parses + 1
            assert len(template_module._COMPILE_CACHE) == cap
        finally:
            clear_template_cache()
