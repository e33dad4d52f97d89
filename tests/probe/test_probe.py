"""Unit tests for the runtime probe: snapshots, scanner, reachability."""

import pytest

from repro.cluster import (
    BehaviorRegistry,
    Cluster,
    ContainerBehavior,
    ListenSpec,
    behavior_with_dynamic_ports,
)
from repro.k8s import allow_ports_policy, deny_all_policy, equality_selector
from repro.probe import (
    ATTACKER_POD_NAME,
    ClusterSnapshot,
    PodSnapshot,
    ReachabilityProbe,
    RuntimeScanner,
    SocketRecord,
)
from tests.conftest import make_deployment, make_service


@pytest.fixture
def probed_cluster():
    registry = BehaviorRegistry()
    registry.register(
        "example/web",
        ContainerBehavior(
            listen_on_declared=True,
            extra_listens=[ListenSpec(port=9999), ListenSpec(port=None)],
            ignore_declared_ports={8443},
        ),
    )
    cluster = Cluster(name="probe-test", worker_count=2, behaviors=registry, seed=21)
    cluster.install([make_deployment(ports=[8080, 8443]), make_service()], app_name="web")
    return cluster


class TestSnapshots:
    def test_pod_snapshot_records_declared_and_open(self, probed_cluster):
        snapshot = PodSnapshot.from_running_pod(probed_cluster.running_pod("web-0"))
        assert snapshot.declared("TCP") == {8080, 8443}
        assert 8080 in snapshot.open_ports("TCP")
        assert 9999 in snapshot.undeclared_open_ports()
        assert 8443 in snapshot.declared_closed_ports()

    def test_netstat_output_format(self, probed_cluster):
        snapshot = PodSnapshot.from_running_pod(probed_cluster.running_pod("web-0"))
        output = snapshot.netstat_output()
        assert "Active Internet connections" in output
        assert "LISTEN" in output
        assert ":8080" in output

    def test_socket_record_properties(self):
        record = SocketRecord(port=45000, interface="127.0.0.1", dynamic=True)
        assert record.in_ephemeral_range
        assert not record.reachable_from_network

    def test_cluster_snapshot_grouping_by_owner(self, probed_cluster):
        snapshot = ClusterSnapshot.from_pods(probed_cluster.running_pods())
        grouped = snapshot.by_owner()
        assert "Deployment/default/web" in grouped
        assert len(grouped["Deployment/default/web"]) == 1

    def test_cluster_snapshot_lookup(self, probed_cluster):
        snapshot = ClusterSnapshot.from_pods(probed_cluster.running_pods())
        assert snapshot.pod("web-0") is not None
        assert snapshot.pod("missing") is None
        assert snapshot.total_open_ports() >= 2


class TestRuntimeScanner:
    def test_double_snapshot_detects_dynamic_ports(self, probed_cluster):
        scanner = RuntimeScanner(probed_cluster)
        observation = scanner.observe("web")
        snapshot = observation.pods()[0]
        assert observation.has_dynamic_ports(snapshot)
        dynamic = observation.dynamic_ports(snapshot)
        assert all(32768 <= port <= 60999 for port in dynamic)

    def test_single_snapshot_misses_dynamic_ports(self, probed_cluster):
        scanner = RuntimeScanner(probed_cluster)
        observation = scanner.observe("web", restart_between_snapshots=False)
        snapshot = observation.pods()[0]
        assert not observation.has_dynamic_ports(snapshot)

    def test_stable_ports_exclude_dynamic(self, probed_cluster):
        scanner = RuntimeScanner(probed_cluster)
        observation = scanner.observe("web")
        snapshot = observation.pods()[0]
        stable = observation.stable_open_ports(snapshot)
        assert 8080 in stable and 9999 in stable
        assert not any(32768 <= port <= 60999 for port in stable)

    def test_host_ports_filtered_for_host_network_pods(self):
        registry = BehaviorRegistry()
        cluster = Cluster(name="hostnet", worker_count=1, behaviors=registry, seed=4)
        cluster.install(
            [make_deployment("agent", ports=[9100], host_network=True, labels={"app": "agent"})],
            app_name="agent",
        )
        observation = RuntimeScanner(cluster).observe("agent")
        snapshot = observation.pods()[0]
        stable = observation.stable_open_ports(snapshot)
        assert stable == {9100}
        sockets = observation.observed_sockets(snapshot)
        assert {record.port for record in sockets} == {9100}


class TestReachabilityProbe:
    def test_attacker_installed_once(self, probed_cluster):
        probe = ReachabilityProbe(probed_cluster)
        first = probe.ensure_attacker()
        second = probe.ensure_attacker()
        assert first.name == second.name == ATTACKER_POD_NAME

    def test_report_counts_reachable_endpoints(self, probed_cluster):
        probe = ReachabilityProbe(probed_cluster)
        report = probe.probe_application("web")
        assert report.affected
        assert ("web-0", 9999) in report.reachable_pod_endpoints
        assert "web" in report.reachable_services
        assert report.pods_with_dynamic_ports == {"web-0"}

    def test_strict_policy_blocks_misconfigured_ports(self, probed_cluster):
        probed_cluster.api.apply(
            allow_ports_policy("allow-http", equality_selector(app="web"), [8080])
        )
        report = ReachabilityProbe(probed_cluster).probe_application("web")
        reachable_ports = {port for _, port in report.reachable_pod_endpoints}
        assert reachable_ports == {8080}
        assert report.isolated_pods == 1

    def test_deny_all_blocks_everything(self, probed_cluster):
        probed_cluster.api.apply(deny_all_policy("deny"))
        report = ReachabilityProbe(probed_cluster).probe_application("web")
        # The attacker pod is also selected by the deny-all policy, but what
        # matters is that the application endpoints are no longer reachable.
        assert report.reachable_pod_endpoints == []
        assert not report.affected
