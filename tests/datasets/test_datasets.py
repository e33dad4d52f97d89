"""Unit tests for the synthetic dataset builder, catalogue and attacks."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import MODE_STATIC, AnalyzerSettings, MisconfigurationAnalyzer
from repro.datasets import (
    ARCHETYPES,
    DATASETS,
    DATASET_ORDER,
    CatalogError,
    DatasetDefinition,
    DatasetTargets,
    InjectionPlan,
    NETPOL_DISABLED,
    NETPOL_ENABLED_STRICT,
    NETPOL_NONE,
    TABLE2_ROW_SUM_APPLICATIONS,
    PlannedApp,
    build_application,
    build_app_spec,
    build_catalog,
    build_chart,
    build_dataset,
    build_values,
    expected_dataset_counts,
    plan_dataset,
    run_concourse_attack,
    run_thanos_attack,
    slugify,
    validate_targets,
)
from repro.helm import render_chart

#: sha256 over canonical JSON of every catalogue app: dataset, name,
#: version, archetype, every ``InjectionPlan`` field, chart fingerprint and
#: behaviours fingerprint.  Any change to which app gets which finding, or
#: to what a chart or its behaviours contain, moves it -- and so does a
#: change of the chart fingerprint's encoding.
CATALOGUE_SHA256 = "6afa424b74271f8db791afae48d84bf57c45a8632575bad6a55b5e91d7a7b4a4"

#: sha256 over canonical JSON of every catalogue app's content, with no
#: fingerprint of the chart in it: dataset, name, every ``InjectionPlan``
#: field, values as key-sorted JSON, template names and sources, metadata
#: and behaviours fingerprint.  It holds across fingerprint encodings, so
#: it tells a changed catalogue from a changed encoding.
CATALOGUE_CONTENT_SHA256 = "aa090192bede7276e100e5855f2bfa4bd3c2e7f64398cbd1e98293fa88ae326b"


class TestInjectionPlan:
    def test_total_counts_every_class(self):
        plan = InjectionPlan(m1=2, m2=1, m6=True, m7=1, global_collision=True)
        assert plan.total() == 6

    def test_m5b_requires_m1(self):
        with pytest.raises(ValueError):
            InjectionPlan(m5b=1).validate()

    def test_expected_counts_keys_match_table_columns(self):
        assert set(InjectionPlan().expected_counts()) == {
            "M1", "M2", "M3", "M4A", "M4B", "M4C", "M4*", "M5A", "M5B", "M5C", "M5D", "M6", "M7",
        }


class TestBuilder:
    def test_slugify(self):
        assert slugify("Banzai Cloud") == "banzai-cloud"
        assert slugify("European Environment Agency") == "european-environment-agency"
        assert slugify("***") == "app"

    def test_every_archetype_builds_a_clean_app(self):
        analyzer = MisconfigurationAnalyzer()
        for archetype in ARCHETYPES:
            app = build_application(f"clean-{archetype}", "Org", InjectionPlan(),
                                    archetype=archetype)
            report = analyzer.analyze_chart(app.chart, behaviors=app.behaviors)
            assert report.total == 0, f"{archetype} base app is not clean: {report.findings}"

    def test_chart_renders_expected_kinds(self, misconfigured_application):
        rendered = render_chart(misconfigured_application.chart)
        kinds = {obj.kind for obj in rendered.objects}
        assert {"Deployment", "StatefulSet", "Service", "DaemonSet"} <= kinds

    def test_netpol_template_only_present_when_defined(self):
        with_policy = build_application("np", "Org", InjectionPlan(netpol_mode=NETPOL_ENABLED_STRICT))
        without_policy = build_application("nonp", "Org", InjectionPlan(m6=True,
                                                                        netpol_mode=NETPOL_NONE))
        assert with_policy.chart.template_named("networkpolicy.yaml") is not None
        assert without_policy.chart.template_named("networkpolicy.yaml") is None

    def test_disabled_netpol_renders_nothing_until_enabled(self):
        app = build_application("toggle", "Org", InjectionPlan(m6=True, netpol_mode=NETPOL_DISABLED))
        assert render_chart(app.chart).objects_of_kind("NetworkPolicy") == []
        enabled = render_chart(app.chart, overrides={"networkPolicy": {"enabled": True}})
        assert len(enabled.objects_of_kind("NetworkPolicy")) == 1

    def test_values_structure(self):
        spec = build_app_spec("demo", "Org", InjectionPlan(m1=1, m6=True))
        values = build_values(spec)
        assert set(values) == {"components", "services", "networkPolicy"}
        assert values["networkPolicy"]["enabled"] is False

    def test_behaviors_cover_every_component_image(self):
        app = build_application("imgs", "Org", InjectionPlan(m1=1, m2=1, m7=1))
        images = {component.image for component in app.spec.components}
        assert all(image in app.behaviors for image in images)

    def test_host_network_component_builds_daemonset(self):
        app = build_application("hostnet", "Org", InjectionPlan(m7=1))
        rendered = render_chart(app.chart)
        daemonsets = rendered.objects_of_kind("DaemonSet")
        assert len(daemonsets) == 1
        assert daemonsets[0].pod_template().spec.host_network

    def test_global_collision_marker_adds_shared_component(self):
        app = build_application("marked", "Org", InjectionPlan(m6=True, global_collision=True))
        assert app.spec.component("global-metrics-agent") is not None

    def test_unknown_archetype_raises(self):
        with pytest.raises(KeyError):
            build_app_spec("x", "Org", InjectionPlan(), archetype="mainframe")


class TestCatalog:
    def test_targets_sum_to_paper_totals(self):
        validate_targets()

    def test_dataset_order_covers_all_definitions(self):
        assert set(DATASET_ORDER) == set(DATASETS)

    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    def test_planned_totals_match_targets(self, dataset):
        definition = DATASETS[dataset]
        planned = plan_dataset(definition)
        assert len(planned) == definition.targets.total_apps
        totals = {
            "m1": sum(app.plan.m1 for app in planned),
            "m2": sum(app.plan.m2 for app in planned),
            "m3": sum(app.plan.m3 for app in planned),
            "m4a": sum(app.plan.m4a for app in planned),
            "m4b": sum(app.plan.m4b for app in planned),
            "m4c": sum(app.plan.m4c for app in planned),
            "m5a": sum(app.plan.m5a for app in planned),
            "m5b": sum(app.plan.m5b for app in planned),
            "m5c": sum(app.plan.m5c for app in planned),
            "m5d": sum(app.plan.m5d for app in planned),
            "m6": sum(1 for app in planned if app.plan.m6),
            "m7": sum(app.plan.m7 for app in planned),
            "m4_global": sum(1 for app in planned if app.plan.global_collision),
        }
        targets = definition.targets
        for key, value in totals.items():
            assert value == getattr(targets, key), f"{dataset}: {key} mismatch"

    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    def test_affected_and_clean_split(self, dataset):
        definition = DATASETS[dataset]
        planned = plan_dataset(definition)
        affected = [app for app in planned if app.plan.total() > 0]
        assert len(affected) == definition.targets.affected_apps

    def test_app_names_are_unique_within_dataset(self):
        for dataset in DATASET_ORDER:
            planned = plan_dataset(DATASETS[dataset])
            names = [app.name for app in planned]
            assert len(names) == len(set(names)), f"duplicate names in {dataset}"

    def test_plan_is_deterministic(self):
        first = [(app.name, app.plan.expected_counts()) for app in plan_dataset(DATASETS["Bitnami"])]
        second = [(app.name, app.plan.expected_counts()) for app in plan_dataset(DATASETS["Bitnami"])]
        assert first == second

    def test_build_dataset_small_matches_expected_counts(self):
        """End-to-end check on the smallest dataset (CNCF, 10 charts)."""
        from repro.experiments import run_full_evaluation

        apps = build_dataset("CNCF")
        result = run_full_evaluation(applications=apps)
        summary = result.summary.dataset_summary("CNCF")
        got = {cls.value: count for cls, count in summary.counts.items() if count}
        expected = {name: count for name, count in expected_dataset_counts("CNCF").items() if count}
        assert got == expected

    def test_catalogue_matches_golden_digest(self):
        """Every app's identity, plan, chart and behaviours are pinned.

        Totals and determinism alone would miss a planner that hands a
        finding, or a tie, to a different app.
        """
        records = [
            {
                "dataset": app.dataset,
                "name": app.spec.name,
                "version": app.spec.version,
                "archetype": app.spec.archetype,
                "plan": dataclasses.asdict(app.plan),
                "chart": app.fingerprint(),
                "behaviors": app.behaviors.fingerprint(),
            }
            for app in build_catalog()
        ]
        canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert len(records) == TABLE2_ROW_SUM_APPLICATIONS
        assert hashlib.sha256(canonical.encode()).hexdigest() == CATALOGUE_SHA256

    def test_catalogue_content_matches_golden_digest(self):
        """The catalogue's content is pinned apart from any fingerprint encoding."""
        records = [
            {
                "dataset": app.dataset,
                "name": app.name,
                "plan": dataclasses.asdict(app.plan),
                "values": json.dumps(app.chart.values, sort_keys=True),
                "templates": [[t.name, t.source] for t in app.chart.templates],
                "metadata": dataclasses.asdict(app.chart.metadata),
                "behaviors": app.behaviors.fingerprint(),
            }
            for app in build_catalog()
        ]
        canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == CATALOGUE_CONTENT_SHA256

    def test_catalogue_plans_without_app_equality(self, monkeypatch):
        """Planning never compares apps by value, which made it quadratic."""

        def refuse(self, other):
            raise AssertionError("PlannedApp compared by value")

        monkeypatch.setattr(PlannedApp, "__eq__", refuse)
        assert len(build_catalog()) == TABLE2_ROW_SUM_APPLICATIONS

    @pytest.mark.parametrize("m5b", [3, 4])
    def test_m5b_placement_stops_at_m1(self, m5b):
        """An app leaves the M5B pool once its m5b reaches its m1."""
        definition = DatasetDefinition(
            name="Tiny",
            organization="Tiny",
            use_case="internal",
            targets=DatasetTargets(total_apps=3, affected_apps=3, m1=3, m5b=m5b),
            name_pool=["a", "b", "c"],
        )
        if m5b > 3:
            with pytest.raises(CatalogError, match="no eligible application left for m5b"):
                plan_dataset(definition)
        else:
            planned = plan_dataset(definition)
            assert [(app.plan.m1, app.plan.m5b) for app in planned] == [(1, 1)] * 3

    def test_notable_apps_are_included(self):
        planned = plan_dataset(DATASETS["Prometheus C."])
        names = {app.name for app in planned}
        assert "kube-prometheus-stack" in names
        assert "prometheus-node-exporter" in names

    def test_figure3_top_app_has_many_types(self):
        planned = plan_dataset(DATASETS["Prometheus C."])
        stack = next(app for app in planned if app.name == "kube-prometheus-stack")
        assert stack.plan.total() >= 15


class TestAttacks:
    def test_concourse_attack_succeeds_on_default_deployment(self):
        result = run_concourse_attack()
        assert result.succeeded
        assert len(result.tunnel_ports) == 2
        assert result.commands_sent

    def test_thanos_impersonation_succeeds(self):
        result = run_thanos_attack()
        assert result.impersonation_succeeded
        assert "thanos-impersonator" in result.backends_receiving_traffic

    def test_analyzer_flags_the_attack_preconditions(self):
        from repro.datasets import concourse_objects, thanos_objects

        analyzer = MisconfigurationAnalyzer(settings=AnalyzerSettings(mode=MODE_STATIC))
        thanos_report = analyzer.analyze_objects(thanos_objects(), application="thanos")
        assert any(cls.value.startswith("M4") for cls in thanos_report.classes_present())
        concourse_report = analyzer.analyze_objects(concourse_objects(), application="concourse")
        assert "M6" in {cls.value for cls in concourse_report.classes_present()}
