"""Unit tests for the analyzer orchestration, cluster-wide pass, mitigation
engine and the admission-controller defense."""

import pytest

from repro.cluster import AdmissionError, BehaviorRegistry, Cluster
from repro.core import (
    AnalyzerSettings,
    ApplicationInventory,
    MODE_HYBRID,
    MODE_RUNTIME,
    MODE_STATIC,
    MisconfigClass,
    MisconfigurationAnalyzer,
    MitigationEngine,
    NetworkMisconfigurationAdmission,
    find_cross_application_selector_matches,
    find_global_collisions,
    generate_network_policies,
    global_collision_findings,
)
from repro.datasets import InjectionPlan, build_application
from repro.helm import render_chart
from repro.k8s import Inventory, LabelSet
from repro.probe import RuntimeScanner
from tests.conftest import make_deployment, make_pod, make_service


class TestAnalyzerModes:
    def test_hybrid_mode_detects_static_and_runtime_classes(self, misconfigured_application):
        analyzer = MisconfigurationAnalyzer()
        report = analyzer.analyze_chart(
            misconfigured_application.chart, behaviors=misconfigured_application.behaviors
        )
        assert MisconfigClass.M1 in report.classes_present()
        assert MisconfigClass.M6 in report.classes_present()

    def test_static_mode_only_detects_static_classes(self, misconfigured_application):
        analyzer = MisconfigurationAnalyzer(settings=AnalyzerSettings(mode=MODE_STATIC))
        report = analyzer.analyze_chart(
            misconfigured_application.chart, behaviors=misconfigured_application.behaviors
        )
        present = report.classes_present()
        assert MisconfigClass.M1 not in present
        assert MisconfigClass.M2 not in present
        assert MisconfigClass.M6 in present
        assert MisconfigClass.M7 in present

    def test_clean_application_has_no_findings(self, clean_application):
        analyzer = MisconfigurationAnalyzer()
        report = analyzer.analyze_chart(
            clean_application.chart, behaviors=clean_application.behaviors
        )
        assert report.total == 0

    def test_exact_reproduction_of_injection_plan(self):
        plan = InjectionPlan(m1=2, m2=1, m3=1, m4a=1, m4b=1, m4c=1, m5a=1, m5b=2, m5c=1,
                             m5d=1, m6=True, m7=1)
        app = build_application("plan-check", "Test Org", plan, archetype="microservices")
        report = MisconfigurationAnalyzer().analyze_chart(app.chart, behaviors=app.behaviors)
        got = {cls.value: count for cls, count in report.count_by_class().items() if count}
        expected = {name: count for name, count in plan.expected_counts().items() if count}
        assert got == expected

    def test_double_snapshot_required_for_m2(self):
        plan = InjectionPlan(m2=1)
        app = build_application("snap", "Test Org", plan)
        single = MisconfigurationAnalyzer(settings=AnalyzerSettings(double_snapshot=False))
        report = single.analyze_chart(app.chart, behaviors=app.behaviors)
        assert report.of_class(MisconfigClass.M2) == []
        double = MisconfigurationAnalyzer()
        report = double.analyze_chart(app.chart, behaviors=app.behaviors)
        assert len(report.of_class(MisconfigClass.M2)) == 1

    def test_host_port_filtering_avoids_false_positives(self):
        plan = InjectionPlan(m7=1)
        app = build_application("hostnet", "Test Org", plan)
        with_filter = MisconfigurationAnalyzer()
        report = with_filter.analyze_chart(app.chart, behaviors=app.behaviors)
        assert report.of_class(MisconfigClass.M1) == []
        without_filter = MisconfigurationAnalyzer(
            settings=AnalyzerSettings(host_port_filtering=False)
        )
        report = without_filter.analyze_chart(app.chart, behaviors=app.behaviors)
        # Without the host-port baseline, the node's own services (sshd,
        # kubelet, ...) show up as undeclared open ports: false positives.
        assert len(report.of_class(MisconfigClass.M1)) > 0

    def test_detects_policies_available_but_disabled(self):
        plan = InjectionPlan(m6=True, netpol_mode="disabled")
        app = build_application("disabled-np", "Test Org", plan)
        report = MisconfigurationAnalyzer().analyze_chart(app.chart, behaviors=app.behaviors)
        m6 = report.of_class(MisconfigClass.M6)
        assert len(m6) == 1
        assert "disabled by default" in m6[0].message

    def test_analyze_objects_without_observation(self):
        analyzer = MisconfigurationAnalyzer()
        report = analyzer.analyze_objects([make_deployment()], application="objs")
        assert MisconfigClass.M6 in report.classes_present()


class TestClusterWide:
    def _inventories(self):
        shared = {"app": "metrics-agent"}
        first = Inventory([make_deployment("agent", labels=shared)])
        second = Inventory([make_deployment("agent", labels=shared)])
        third = Inventory([make_deployment("other", labels={"app": "unique"})])
        return [
            ApplicationInventory("app-a", first),
            ApplicationInventory("app-b", second),
            ApplicationInventory("app-c", third),
        ]

    def test_identical_labels_across_apps_detected(self):
        collisions = find_global_collisions(self._inventories())
        assert len(collisions) == 1
        assert collisions[0].applications == {"app-a", "app-b"}

    def test_findings_attributed_to_each_involved_application(self):
        findings = global_collision_findings(self._inventories())
        assert {finding.application for finding in findings} == {"app-a", "app-b"}
        assert all(f.misconfig_class is MisconfigClass.M4_GLOBAL for f in findings)

    def test_cross_application_selector_match(self):
        provider = ApplicationInventory(
            "provider", Inventory([make_deployment("db", labels={"app": "db"})])
        )
        consumer = ApplicationInventory(
            "consumer", Inventory([make_service("db-svc", selector={"app": "db"})])
        )
        collisions = find_cross_application_selector_matches([provider, consumer])
        assert len(collisions) == 1
        assert collisions[0].applications == {"provider", "consumer"}

    def test_no_collision_within_single_application(self):
        single = [ApplicationInventory("solo", Inventory([
            make_deployment("a", labels={"app": "x"}),
            make_deployment("b", labels={"app": "x"}),
        ]))]
        assert find_global_collisions(single) == []


class TestMitigationEngine:
    def _analyze(self, app):
        analyzer = MisconfigurationAnalyzer()
        return analyzer.analyze_chart(app.chart, behaviors=app.behaviors)

    def test_mitigations_remove_automatable_findings(self):
        plan = InjectionPlan(m1=2, m3=1, m5a=1, m6=True, m7=1)
        app = build_application("fixme", "Test Org", plan, archetype="web")
        report = self._analyze(app)
        rendered = render_chart(app.chart)
        result = MitigationEngine().apply(rendered.objects, report.findings)
        assert result.applied_count >= 5

        cluster = Cluster(name="verify", worker_count=2, behaviors=app.behaviors, seed=13)
        cluster.install(result.objects, app_name="fixme")
        observation = RuntimeScanner(cluster).observe("fixme")
        after = MisconfigurationAnalyzer().analyze_objects(
            result.objects, application="fixme", observation=observation
        )
        for cls in (MisconfigClass.M1, MisconfigClass.M3, MisconfigClass.M6, MisconfigClass.M7):
            assert after.of_class(cls) == [], f"{cls} still present after mitigation"

    def test_m2_mitigation_is_advisory(self):
        plan = InjectionPlan(m2=1)
        app = build_application("dyn", "Test Org", plan)
        report = self._analyze(app)
        rendered = render_chart(app.chart)
        result = MitigationEngine().apply(rendered.objects, report.findings)
        assert result.applied_count == 0
        assert result.advisory_count == 1

    def test_label_collision_mitigation_separates_units(self):
        plan = InjectionPlan(m4a=1)
        app = build_application("collide", "Test Org", plan)
        report = self._analyze(app)
        rendered = render_chart(app.chart)
        result = MitigationEngine().apply(rendered.objects, report.findings)
        after = MisconfigurationAnalyzer(settings=AnalyzerSettings(mode=MODE_STATIC)).analyze_objects(
            result.objects, application="collide"
        )
        assert after.of_class(MisconfigClass.M4A) == []

    def test_generate_network_policies_produces_default_deny_plus_allows(self):
        inventory = Inventory([make_deployment(), make_service()])
        policies = generate_network_policies(inventory, "web")
        names = [policy.name for policy in policies]
        assert "web-default-deny" in names
        assert any(name.startswith("web-allow-") for name in names)

    def test_generated_policies_allow_only_service_ports(self, deployed_cluster):
        inventory = Inventory(
            [obj for obj in deployed_cluster.api.store.all() if obj.kind in ("Deployment", "Service")]
        )
        for policy in generate_network_policies(inventory, "web"):
            deployed_cluster.api.apply(policy)
        attacker = deployed_cluster.running_pod("attacker")
        web = deployed_cluster.running_pod("web-0")
        assert deployed_cluster.connect(attacker, web, 8080).success
        assert not deployed_cluster.connect(attacker, web, 9999).success

    def test_original_objects_are_not_mutated(self):
        plan = InjectionPlan(m7=1)
        app = build_application("immutable", "Test Org", plan)
        rendered = render_chart(app.chart)
        report = self._analyze(app)
        MitigationEngine().apply(rendered.objects, report.findings)
        daemonsets = [obj for obj in rendered.objects if obj.kind == "DaemonSet"]
        assert all(ds.pod_template().spec.host_network for ds in daemonsets)


class TestAdmissionDefense:
    def _guarded_cluster(self, mode="enforce", **kwargs):
        admission = NetworkMisconfigurationAdmission(mode=mode, **kwargs)
        cluster = Cluster(name="guarded", worker_count=1, behaviors=BehaviorRegistry(), seed=2)
        cluster.register_admission_controller(admission)
        return cluster, admission

    def test_host_network_workload_is_rejected(self):
        cluster, _ = self._guarded_cluster()
        with pytest.raises(AdmissionError, match="M7"):
            cluster.install([make_deployment(host_network=True)], app_name="bad")

    def test_label_collision_with_existing_workload_is_rejected(self):
        cluster, _ = self._guarded_cluster()
        cluster.install([make_deployment("first", labels={"app": "shared"})], app_name="first")
        with pytest.raises(AdmissionError, match="M4"):
            cluster.install([make_deployment("second", labels={"app": "shared"})], app_name="second")

    def test_service_without_target_is_rejected(self):
        cluster, _ = self._guarded_cluster()
        with pytest.raises(AdmissionError, match="M5D"):
            cluster.install([make_service("orphan", selector={"app": "ghost"})], app_name="svc")

    def test_service_targeting_undeclared_port_is_rejected(self):
        cluster, _ = self._guarded_cluster()
        with pytest.raises(AdmissionError, match="M5B"):
            cluster.install(
                [make_deployment(), make_service(target_port=9999)], app_name="bad-svc"
            )

    def test_clean_application_is_admitted(self):
        cluster, admission = self._guarded_cluster()
        cluster.install([make_deployment(), make_service()], app_name="ok")
        assert admission.warnings == []

    def test_warn_mode_records_warnings_without_blocking(self):
        cluster, admission = self._guarded_cluster(mode="warn")
        cluster.install([make_deployment(host_network=True), make_service()], app_name="warned")
        assert len(cluster.running_pods()) > 0
        assert any(w.misconfig_class is MisconfigClass.M7 for w in admission.warnings)

    def test_require_network_policies_option(self):
        cluster, _ = self._guarded_cluster(require_network_policies=True)
        with pytest.raises(AdmissionError, match="M6"):
            cluster.install([make_deployment()], app_name="nopolicy")

    def test_reset_clears_warnings(self):
        _, admission = self._guarded_cluster(mode="warn")
        admission.warnings.append("sentinel")  # type: ignore[arg-type]
        admission.reset()
        assert admission.warnings == []

    def test_pod_identity_helper_handles_plain_pods(self):
        cluster, _ = self._guarded_cluster()
        cluster.install([make_pod("standalone", labels={"app": "solo"})], app_name="solo")
        with pytest.raises(AdmissionError, match="M4"):
            cluster.install([make_pod("copycat", labels={"app": "solo"})], app_name="copy")
