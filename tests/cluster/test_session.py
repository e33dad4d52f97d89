"""Unit tests for AnalysisSession, ObservationSubstrate and Cluster.reset."""

import pytest

from repro.cluster import (
    AnalysisSession,
    BehaviorRegistry,
    Cluster,
    ClusterError,
    ContainerBehavior,
    ListenSpec,
    OBSERVE_FULL,
    ObservationSubstrate,
)
from repro.helm import render_chart
from repro.k8s import ValidationError
from repro.probe import ReachabilityProbe
from repro.probe.reachability import ATTACKER_APP
from tests.conftest import make_deployment, make_pod, make_service


def registry_with_extras() -> BehaviorRegistry:
    registry = BehaviorRegistry()
    registry.register(
        "example/web",
        ContainerBehavior(listen_on_declared=True, extra_listens=[ListenSpec(port=9999)]),
    )
    return registry


def install_fixture(cluster: Cluster) -> None:
    cluster.install(
        [make_deployment(replicas=2), make_service(), make_pod("attacker")],
        app_name="web",
    )


class TestClusterReset:
    def test_reset_restores_as_constructed_state(self):
        cluster = Cluster(name="pool", worker_count=2, seed=11)
        install_fixture(cluster)
        assert cluster.running_pods()
        cluster.reset()
        assert cluster.running_pods() == []
        assert cluster.applications() == []
        assert cluster.services() == []
        assert cluster.network_policies() == []
        assert cluster.session_epoch == 1
        # Nodes are recycled, not rebuilt: same names, same deterministic IPs.
        fresh = Cluster(name="pool", worker_count=2, seed=11)
        assert [n.name for n in cluster.nodes] == [n.name for n in fresh.nodes]
        assert [n.ip for n in cluster.nodes] == [n.ip for n in fresh.nodes]
        assert all(not n.pod_names for n in cluster.nodes)
        # Namespace defaults are back.
        assert cluster.api.store.exists("Namespace", "default", "")
        assert cluster.api.store.exists("Namespace", "kube-system", "")

    def test_reset_moves_policy_epoch_strictly_forward(self):
        cluster = Cluster(name="pool", worker_count=2)
        install_fixture(cluster)
        index_before = cluster.policy_index()
        epoch_before = cluster.policy_epoch
        cluster.reset()
        assert cluster.policy_epoch > epoch_before
        # Epoch-keyed caches rebuild instead of serving stale state.
        assert cluster.policy_index() is not index_before
        assert cluster.service_bindings() == []

    def test_reset_replays_identical_ephemeral_ports(self):
        behaviors = BehaviorRegistry()
        behaviors.register(
            "example/web",
            ContainerBehavior(listen_on_declared=True, extra_listens=[ListenSpec(port=None)]),
        )
        recycled = Cluster(name="pool", worker_count=2, behaviors=behaviors, seed=7)
        install_fixture(recycled)
        recycled.reset(behaviors=behaviors, seed=7)
        install_fixture(recycled)
        fresh = Cluster(name="pool", worker_count=2, behaviors=behaviors, seed=7)
        install_fixture(fresh)
        recycled_ports = sorted(
            (p.name, sorted(s.port for s in p.sockets)) for p in recycled.running_pods()
        )
        fresh_ports = sorted(
            (p.name, sorted(s.port for s in p.sockets)) for p in fresh.running_pods()
        )
        assert recycled_ports == fresh_ports

    def test_reset_swaps_behaviors_and_drops_admission_controllers(self):
        cluster = Cluster(name="pool", worker_count=2)

        class Rejecting:
            name = "reject-all"

            def review(self, obj, store):  # pragma: no cover - never invoked
                raise AssertionError("should have been dropped by reset")

        cluster.register_admission_controller(Rejecting())
        replacement = registry_with_extras()
        cluster.reset(behaviors=replacement)
        assert cluster.behaviors is replacement
        assert cluster.runtime.behaviors is replacement
        assert cluster.api.admission_controllers == []
        install_fixture(cluster)
        web = cluster.running_pods(app_name="web")
        assert any(s.port == 9999 for p in web for s in p.sockets)


class TestAnalysisSessionPool:
    def test_lease_recycles_one_skeleton(self):
        session = AnalysisSession(name="pool", worker_count=2, observe_mode=OBSERVE_FULL)
        with session.lease() as first:
            install_fixture(first)
        with session.lease() as second:
            assert second is first
            assert second.running_pods() == []
        assert session.stats.clusters_built == 1
        assert session.stats.resets == 1
        assert session.stats.leases == 2

    def test_unpooled_session_builds_fresh_clusters(self):
        session = AnalysisSession(observe_mode=OBSERVE_FULL, pooled=False)
        with session.lease() as first:
            pass
        with session.lease() as second:
            assert second is not first
        assert session.stats.clusters_built == 2
        assert session.stats.resets == 0

    def test_unknown_observe_mode_rejected(self):
        with pytest.raises(ValueError, match="observe_mode"):
            AnalysisSession(observe_mode="bogus")


class TestObservationSubstrate:
    def _rendered(self, chart):
        return render_chart(chart, release_name="rel")

    def test_single_snapshot_mode_reuses_first(self, simple_chart):
        session = AnalysisSession(worker_count=2)
        observation = session.observe(
            self._rendered(simple_chart), double_snapshot=False
        )
        assert observation.second is observation.first

    def test_host_port_baseline_is_copied_out(self):
        substrate = ObservationSubstrate(worker_count=2)
        baseline = substrate.host_port_baseline()
        baseline.add(65000)
        assert 65000 not in substrate.host_port_baseline()

    def test_validation_errors_match_the_install_path(self, simple_chart):
        rendered = self._rendered(simple_chart)
        # A service declaring the same port twice fails validation on install;
        # the fast path must fail identically.
        bad = make_service()
        bad.ports.append(bad.ports[0])
        rendered.objects.append(bad)
        with pytest.raises(ValidationError) as fast_error:
            AnalysisSession(worker_count=2).observe(rendered)
        rendered_again = self._rendered(simple_chart)
        rendered_again.objects.append(bad)
        cluster = Cluster(name="analysis", worker_count=2)
        with pytest.raises(ValidationError) as full_error:
            cluster.install(rendered_again)
        assert str(fast_error.value) == str(full_error.value)

    def test_deploy_rejects_a_reference_session(self, simple_chart):
        for session in (
            AnalysisSession(observe_mode=OBSERVE_FULL),
            AnalysisSession(compiled_policies=False),
        ):
            with pytest.raises(ValueError, match="install-free with compiled policies"):
                with session.deploy(self._rendered(simple_chart), BehaviorRegistry()):
                    pass

    def test_deployment_runs_the_attacker_in_default_only(self, simple_chart):
        session = AnalysisSession(worker_count=2)
        with session.deploy(self._rendered(simple_chart), BehaviorRegistry()) as deployment:
            probe = ReachabilityProbe(deployment)
            assert probe.ensure_attacker().app == ATTACKER_APP
            with pytest.raises(ClusterError, match="'default' only, not in 'apps'"):
                probe.ensure_attacker("apps")

    def test_substrate_nodes_mirror_cluster_nodes(self):
        substrate = ObservationSubstrate(name="analysis", worker_count=3)
        cluster = Cluster(name="analysis", worker_count=3)
        assert [n.name for n in substrate.nodes] == [n.name for n in cluster.nodes]
        assert substrate.host_port_baseline() == cluster.host_port_baseline()

    def test_dynamic_socket_deduplicated_by_static_port_still_restarts(self):
        """The skip-restart decision keys on RNG draws, not surviving sockets.

        A static declared port that collides with the first ephemeral draw
        makes the runtime deduplicate the dynamic socket away -- but the
        draw happened, so the full path's restart redraws and the fast path
        must too, or second snapshots (and every later draw) diverge.
        """
        import random

        from repro.k8s import EPHEMERAL_PORT_RANGE

        seed = 7
        collision_port = random.Random(seed).randint(*EPHEMERAL_PORT_RANGE)
        behaviors = BehaviorRegistry()
        behaviors.register(
            "example/web",
            ContainerBehavior(listen_on_declared=True, extra_listens=[ListenSpec(port=None)]),
        )
        objects = [make_deployment(name="web", replicas=1, ports=[collision_port])]

        fresh = Cluster(name="analysis", worker_count=3, behaviors=behaviors, seed=seed)
        fresh.install(list(objects), app_name="web")
        # The collision actually happened: no surviving dynamic socket.
        assert not any(s.dynamic for s in fresh.running_pod("web-0").sockets)
        from repro.probe import RuntimeScanner

        reference = RuntimeScanner(fresh).observe("web")

        from repro.helm import Chart, ReleaseInfo, RenderedChart

        rendered = RenderedChart(
            chart=Chart.from_files("web"),
            release=ReleaseInfo(name="web"),
            values={},
            objects=list(objects),
        )
        session = AnalysisSession(worker_count=3, seed=seed)
        fast = session.observe(rendered, behaviors)
        assert fast.first.to_dict() == reference.first.to_dict()
        assert fast.second.to_dict() == reference.second.to_dict()
