"""Unit tests for the chart model and the chart renderer."""

import pytest

from repro.helm import (
    Chart,
    ChartError,
    HelmRenderer,
    ReleaseInfo,
    RenderError,
    render_chart,
)
from repro.k8s import Deployment, Service


class TestChart:
    def test_from_files_parses_values(self):
        chart = Chart.from_files("demo", values_yaml="a: 1\n", templates={"cm.yaml": "kind: X"})
        assert chart.values == {"a": 1}
        assert chart.template_named("cm.yaml") is not None

    def test_effective_values_merges_overrides(self):
        chart = Chart.from_files("demo", values_yaml="service:\n  port: 80\n")
        values = chart.effective_values({"service": {"port": 8080}})
        assert values == {"service": {"port": 8080}}

    def test_helper_templates_are_detected(self):
        chart = Chart.from_files("demo", templates={"_helpers.tpl": "", "app.yaml": ""})
        helpers = [template.name for template in chart.templates if template.is_helper]
        assert helpers == ["_helpers.tpl"]

    def test_validate_rejects_duplicate_template_names(self):
        chart = Chart.from_files("demo", templates={"a.yaml": "x"})
        chart.add_template("a.yaml", "y")
        with pytest.raises(ChartError):
            chart.validate()

    def test_validate_rejects_missing_name(self):
        chart = Chart.from_files("demo")
        chart.metadata.name = ""
        with pytest.raises(ChartError):
            chart.validate()

    def test_add_subchart_registers_dependency(self):
        parent = Chart.from_files("parent")
        child = Chart.from_files("child")
        parent.add_subchart(child, condition="child.enabled")
        parent.validate()
        assert parent.dependencies[0].name == "child"

    def test_validate_rejects_dependency_without_subchart(self):
        from repro.helm.chart import ChartDependency

        chart = Chart.from_files("demo")
        chart.dependencies.append(ChartDependency(name="ghost"))
        with pytest.raises(ChartError):
            chart.validate()


class TestRenderer:
    def test_render_simple_chart(self, simple_chart):
        rendered = render_chart(simple_chart, release_name="rel")
        kinds = sorted(obj.kind for obj in rendered.objects)
        assert kinds == ["Deployment", "Service"]
        deployment = rendered.objects_of_kind("Deployment")[0]
        assert isinstance(deployment, Deployment)
        assert deployment.name == "rel-web"

    def test_overrides_change_rendered_values(self, simple_chart):
        rendered = render_chart(simple_chart, overrides={"replicas": 5})
        deployment = rendered.objects_of_kind("Deployment")[0]
        assert deployment.replica_count() == 5

    def test_release_namespace_is_used(self, simple_chart):
        rendered = render_chart(simple_chart, namespace="prod")
        assert rendered.release.namespace == "prod"

    def test_conditional_template_can_disable_resources(self):
        chart = Chart.from_files(
            "demo",
            values_yaml="service:\n  enabled: false\n",
            templates={
                "svc.yaml": (
                    "{{- if .Values.service.enabled }}\n"
                    "apiVersion: v1\nkind: Service\nmetadata:\n  name: s\n"
                    "spec:\n  ports:\n    - port: 80\n{{- end }}\n"
                )
            },
        )
        assert render_chart(chart).objects == []
        enabled = render_chart(chart, overrides={"service": {"enabled": True}})
        assert isinstance(enabled.objects[0], Service)

    def test_invalid_yaml_output_raises_render_error(self):
        chart = Chart.from_files("demo", templates={"bad.yaml": "kind: [unclosed"})
        with pytest.raises(RenderError):
            render_chart(chart)

    def test_template_error_is_wrapped_with_chart_context(self):
        chart = Chart.from_files("demo", templates={"bad.yaml": "{{ unknownFunc }}"})
        with pytest.raises(RenderError, match="demo/bad.yaml"):
            render_chart(chart)

    def test_subchart_rendering_with_condition(self):
        child = Chart.from_files(
            "child",
            values_yaml="port: 9090\n",
            templates={
                "svc.yaml": (
                    "apiVersion: v1\nkind: Service\nmetadata:\n  name: child\n"
                    "spec:\n  ports:\n    - port: {{ .Values.port }}\n"
                )
            },
        )
        parent = Chart.from_files("parent", values_yaml="child:\n  enabled: true\n  port: 1234\n")
        parent.add_subchart(child, condition="child.enabled")
        rendered = render_chart(parent)
        service = rendered.objects_of_kind("Service")[0]
        assert service.port_numbers() == {1234}
        disabled = render_chart(parent, overrides={"child": {"enabled": False}})
        assert disabled.objects == []

    def test_global_values_propagate_to_subchart(self):
        child = Chart.from_files(
            "child",
            templates={
                "cm.yaml": (
                    "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: child\n"
                    "data:\n  region: {{ .Values.global.region }}\n"
                )
            },
        )
        parent = Chart.from_files("parent", values_yaml="global:\n  region: eu-north\n")
        parent.add_subchart(child)
        rendered = render_chart(parent)
        configmap = rendered.objects_of_kind("ConfigMap")[0]
        assert configmap.data["region"] == "eu-north"

    def test_sources_are_recorded_per_template(self, simple_chart):
        rendered = HelmRenderer().render(simple_chart, ReleaseInfo(name="rel"))
        assert any(name.endswith("deployment.yaml") for name in rendered.sources)

    def test_inventory_view(self, rendered_simple_chart):
        inventory = rendered_simple_chart.inventory()
        assert len(inventory.compute_units()) == 1
        assert len(inventory.services()) == 1
