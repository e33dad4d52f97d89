"""The ClusterError hierarchy: specific errors, pickling, pool reusability.

Three contracts:

* failure modes raise their *specific* :class:`ClusterError` subclass --
  IPAM pool exhaustion is an :class:`IPAMError`, an unplaceable pod is a
  :class:`SchedulingError`, a duplicate object is an
  :class:`AlreadyExistsError` -- never a bare assert or ``KeyError``;
* every error in the hierarchy round-trips through pickle verbatim
  (type, message, extra attributes, chart-context annotation), because the
  parallel sweeps ship them across process-pool boundaries;
* an error mid-install does not poison a pooled cluster: after ``reset()``
  the same skeleton installs a healthy application normally.
"""

import pickle

import pytest

from repro.cluster import (
    AddressPool,
    AdmissionError,
    AlreadyExistsError,
    AnalysisSession,
    Cluster,
    ClusterError,
    ClusterNetwork,
    DuplicatePodError,
    IPAMError,
    NetworkPolicyEnforcer,
    Node,
    NotFoundError,
    PodNotFound,
    RunningPod,
    SchedulingError,
    Socket,
    actionable_message,
)
from repro.k8s import ObjectMeta, Pod, PodSpec, Container
from tests.conftest import make_deployment, make_pod, make_service


def make_pinned_pod(node_name: str) -> Pod:
    return Pod(
        metadata=ObjectMeta(name="pinned", namespace="default"),
        spec=PodSpec(containers=[Container(name="c", image="example/pod")], node_name=node_name),
    )


class TestSpecificErrors:
    def test_ipam_pool_exhaustion_raises_ipam_error(self):
        pool = AddressPool("10.0.0.0/30")  # network + reserved + 1 usable
        pool.allocate("pod-a")
        with pytest.raises(IPAMError, match="exhausted"):
            pool.allocate("pod-b")
        # The specific subclass, catchable as the base class too.
        with pytest.raises(ClusterError):
            pool.allocate("pod-c")

    def test_unschedulable_pod_raises_scheduling_error(self):
        cluster = Cluster(name="errs", worker_count=0)  # control plane only
        with pytest.raises(SchedulingError, match="no schedulable node"):
            cluster.install([make_pod("stranded")], app_name="stranded")

    def test_unknown_node_name_raises_scheduling_error(self):
        cluster = Cluster(name="errs", worker_count=2)
        with pytest.raises(SchedulingError, match="unknown node"):
            cluster.install([make_pinned_pod("no-such-node")], app_name="pinned")

    def test_duplicate_object_raises_already_exists(self):
        cluster = Cluster(name="errs", worker_count=2)
        cluster.api.apply(make_service("dup"), replace=False)
        with pytest.raises(AlreadyExistsError, match="dup"):
            cluster.api.apply(make_service("dup"), replace=False)

    def test_duplicate_application_raises_cluster_error(self):
        cluster = Cluster(name="errs", worker_count=2)
        cluster.install([make_deployment()], app_name="web")
        with pytest.raises(ClusterError, match="already installed"):
            cluster.install([make_deployment()], app_name="web")


def _running_twin(name: str, ip: str) -> RunningPod:
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace="default"),
        spec=PodSpec(containers=[Container(name="c", image="example/pod")]),
    )
    return RunningPod(
        pod=pod,
        ip=ip,
        node=Node(name="errs-node"),
        sockets=[Socket(port=8080, protocol="TCP", container="c")],
    )


class TestDuplicatePodIdentity:
    """``all_pairs`` refuses snapshots with a duplicated (namespace, name).

    The result dict is keyed on that identity; a duplicate would silently
    overwrite the first pod's surface, so the matrix raises the specific
    :class:`DuplicatePodError` instead -- on the bitset engine and the naive
    reference scan alike.
    """

    def _pods(self):
        return [
            _running_twin("web-0", "10.0.0.1"),
            _running_twin("other", "10.0.0.2"),
            _running_twin("web-0", "10.0.0.3"),  # identity collision
        ]

    @pytest.mark.parametrize("use_index", (True, False))
    def test_all_pairs_raises_duplicate_pod_error(self, use_index):
        network = ClusterNetwork(enforcer=NetworkPolicyEnforcer({}, use_index=use_index))
        matrix = network.reachability_matrix([], self._pods(), [])
        with pytest.raises(DuplicatePodError, match="default/web-0") as excinfo:
            matrix.all_pairs()
        assert excinfo.value.name == "web-0"
        assert excinfo.value.namespace == "default"
        # The specific subclass is still catchable as the base class.
        with pytest.raises(ClusterError):
            matrix.all_pairs()

    def test_per_source_queries_still_work_on_duplicate_snapshot(self):
        # Only the keyed all-pairs result refuses; per-source surfaces stay
        # answerable, and the vectorized path matches the naive reference
        # even on the invalid snapshot (self-exclusion keys on identity, so
        # each twin treats the other as itself).
        pods = self._pods()
        network = ClusterNetwork(enforcer=NetworkPolicyEnforcer({}))
        naive = ClusterNetwork(enforcer=NetworkPolicyEnforcer({}, use_index=False))
        oracle = naive.reachability_matrix([], pods, [])
        vector = network.reachability_matrix([], pods, [])
        for pod in pods:
            assert vector.endpoints_from(pod) == oracle.endpoints_from(pod)
        assert [e.name for e in vector.endpoints_from(pods[1])] == ["web-0", "web-0"]
        assert [e.name for e in vector.endpoints_from(pods[0])] == ["other"]

    def test_unique_identities_do_not_raise(self):
        pods = [_running_twin("web-0", "10.0.0.1"), _running_twin("web-1", "10.0.0.2")]
        network = ClusterNetwork(enforcer=NetworkPolicyEnforcer({}))
        surfaces = network.reachability_matrix([], pods, []).all_pairs()
        assert set(surfaces) == {("default", "web-0"), ("default", "web-1")}


class TestPickling:
    def test_every_subclass_roundtrips_verbatim(self):
        errors = [
            ClusterError("plain"),
            AdmissionError("denied", reason="Invalid"),
            AlreadyExistsError("Service default/web already exists"),
            NotFoundError("Pod default/missing not found"),
            PodNotFound("web-0", namespace="prod"),
            DuplicatePodError("web-0", namespace="prod"),
            SchedulingError("no schedulable node available for pod 'web-0'"),
            IPAMError("address pool 10.244.0.0/16 exhausted"),
        ]
        for error in errors:
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert clone.args == error.args
            assert str(clone) == str(error)
        admission = pickle.loads(pickle.dumps(errors[1]))
        assert admission.reason == "Invalid"
        pod_missing = pickle.loads(pickle.dumps(errors[4]))
        assert (pod_missing.name, pod_missing.namespace) == ("web-0", "prod")

    def test_chart_context_survives_pickle(self):
        error = PodNotFound("web-0").with_context("CNCF/cert-manager")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "[CNCF/cert-manager] pod default/web-0 is not running"
        assert clone.name == "web-0"


class TestActionableMessages:
    def test_each_class_gets_specific_guidance(self):
        assert "worker" in actionable_message(SchedulingError("no node")).lower()
        assert "replica" in actionable_message(IPAMError("exhausted")).lower()
        assert "behaviors" in actionable_message(PodNotFound("web-0")).lower()
        assert "admission" in actionable_message(AdmissionError("denied")).lower()
        assert "release" in actionable_message(AlreadyExistsError("dup")).lower()

    def test_message_leads_with_type_and_original_text(self):
        message = actionable_message(IPAMError("address pool 10.0.0.0/30 exhausted"))
        assert message.startswith("IPAMError: address pool 10.0.0.0/30 exhausted")


class TestPooledClusterReusableAfterError:
    def test_reset_recovers_from_scheduling_error(self):
        session = AnalysisSession(name="errs", worker_count=2)
        cluster = session.acquire()
        with pytest.raises(SchedulingError):
            cluster.install([make_pinned_pod("no-such-node")], app_name="broken")
        session.release(cluster)
        # The recycled skeleton behaves like a fresh one.
        recycled = session.acquire()
        assert recycled is cluster
        recycled.install([make_deployment(replicas=2), make_service()], app_name="web")
        assert len(recycled.running_pods(app_name="web")) == 2
        fresh = Cluster(name="errs", worker_count=2)
        fresh.install([make_deployment(replicas=2), make_service()], app_name="web")
        assert sorted(p.name for p in recycled.running_pods()) == sorted(
            p.name for p in fresh.running_pods()
        )

    def test_reset_recovers_from_duplicate_admission(self):
        session = AnalysisSession(name="errs", worker_count=2)
        cluster = session.acquire()
        cluster.api.apply(make_service("dup"), replace=False)
        with pytest.raises(AlreadyExistsError):
            cluster.api.apply(make_service("dup"), replace=False)
        session.release(cluster)
        recycled = session.acquire()
        assert recycled is cluster
        # The store is empty again: the same apply succeeds.
        recycled.api.apply(make_service("dup"), replace=False)
        assert recycled.api.store.exists("Service", "dup", "default")

    def test_reset_recovers_from_ipam_exhaustion(self):
        session = AnalysisSession(name="errs", worker_count=2)
        cluster = session.acquire()
        # Exhaust the pod pool artificially, then fail an install.
        pool = cluster.ipam.pods
        pool._next_index = pool._max_index
        with pytest.raises(IPAMError):
            cluster.install([make_deployment(replicas=2)], app_name="web")
        session.release(cluster)
        recycled = session.acquire()
        assert recycled is cluster
        recycled.install([make_deployment(replicas=2)], app_name="web")
        assert len(recycled.running_pods(app_name="web")) == 2
