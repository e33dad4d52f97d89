"""Differential property tests: compiled policy engine == naive evaluator.

The compiled engine (PolicyIndex + enforcer memoization + ReachabilityMatrix)
must be a *pure acceleration* of the naive per-attempt evaluation kept behind
``use_index=False``.  Hypothesis generates randomized pods, sockets, services
and policies (including matchExpressions, namespace selectors, named ports
and port ranges) and asserts identical ``PolicyDecision``s and identical
reachable-endpoint surfaces -- plus cache invalidation across real cluster
mutations (install / uninstall / restart / direct API writes).
"""

from __future__ import annotations

import copy
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    ClusterNetwork,
    Cluster,
    EndpointController,
    NetworkPolicyEnforcer,
    Node,
    PodNotFound,
    PolicyIndex,
    RunningPod,
    Socket,
)
from repro.k8s import (
    Container,
    ContainerPort,
    LabelSelectorRequirement,
    LabelSet,
    NetworkPolicy,
    NetworkPolicyPeer,
    NetworkPolicyPort,
    NetworkPolicyRule,
    ObjectMeta,
    Pod,
    PodSpec,
    Selector,
    Service,
    ServicePort,
    allow_ports_policy,
    deny_all_policy,
    equality_selector,
)
import pytest

from repro.cluster import network
from repro.cluster.network import EndpointUniverse
from tests.conftest import make_deployment, make_pod, make_service

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NAMESPACES = ("default", "prod")
NAMESPACE_LABELS = {
    "default": {"kubernetes.io/metadata.name": "default", "env": "dev"},
    "prod": {"kubernetes.io/metadata.name": "prod", "env": "prod"},
}
LABEL_KEYS = ("app", "tier", "role")
LABEL_VALUES = ("web", "db", "cache")
PORTS = (80, 8080, 9090)

namespaces = st.sampled_from(NAMESPACES)
label_dicts = st.dictionaries(
    st.sampled_from(LABEL_KEYS), st.sampled_from(LABEL_VALUES), max_size=3
)

selectors = st.one_of(
    st.builds(lambda labels: Selector(match_labels=LabelSet(labels)), label_dicts),
    st.builds(
        lambda key, op, values: Selector(
            match_expressions=(
                LabelSelectorRequirement(
                    key=key,
                    operator=op,
                    values=tuple(values) if op in ("In", "NotIn") else (),
                ),
            )
        ),
        st.sampled_from(LABEL_KEYS),
        st.sampled_from(("In", "NotIn", "Exists", "DoesNotExist")),
        st.lists(st.sampled_from(LABEL_VALUES), min_size=1, max_size=2),
    ),
)

peers = st.builds(
    NetworkPolicyPeer,
    pod_selector=st.one_of(st.none(), selectors),
    namespace_selector=st.one_of(
        st.none(),
        st.builds(lambda env: Selector(match_labels=LabelSet({"env": env})),
                  st.sampled_from(("dev", "prod"))),
    ),
)

policy_ports = st.one_of(
    st.builds(NetworkPolicyPort, port=st.sampled_from(PORTS)),
    st.builds(NetworkPolicyPort, port=st.just(None)),
    st.builds(NetworkPolicyPort, port=st.just("http")),
    st.builds(NetworkPolicyPort, port=st.just(8000), end_port=st.just(9500)),
)

rules = st.builds(
    NetworkPolicyRule,
    peers=st.lists(peers, max_size=2),
    ports=st.lists(policy_ports, max_size=2),
)


@st.composite
def network_policies(draw, index: int = 0):
    return NetworkPolicy(
        metadata=ObjectMeta(name=f"policy-{draw(st.integers(0, 999))}-{index}",
                            namespace=draw(namespaces)),
        pod_selector=draw(selectors),
        policy_types=draw(st.sampled_from((["Ingress"], ["Ingress", "Egress"], ["Egress"]))),
        ingress=draw(st.lists(rules, max_size=2)),
    )


@st.composite
def running_pods(draw, index: int):
    namespace = draw(namespaces)
    labels = draw(label_dicts)
    host_network = draw(st.booleans()) and draw(st.booleans())  # ~25% hostNetwork
    ports = draw(st.lists(st.sampled_from(PORTS), min_size=1, max_size=2, unique=True))
    loopback = draw(st.booleans()) and draw(st.booleans())
    pod = Pod(
        metadata=ObjectMeta(name=f"pod-{index}", namespace=namespace,
                            labels=LabelSet(labels)),
        spec=PodSpec(
            containers=[
                Container(
                    name="main",
                    image="prop/app",
                    ports=[ContainerPort(8080, name="http")],
                )
            ],
            host_network=host_network,
        ),
    )
    sockets = [
        Socket(
            port=port,
            protocol="TCP",
            interface="127.0.0.1" if loopback and i == 0 else "0.0.0.0",
            container="main",
        )
        for i, port in enumerate(ports)
    ]
    return RunningPod(pod=pod, ip=f"10.0.0.{index + 1}", node=Node(name="prop-node"),
                      sockets=sockets, app=f"app-{index % 3}")


@st.composite
def scenarios(draw):
    pods = [draw(running_pods(i)) for i in range(draw(st.integers(2, 5)))]
    policies = [draw(network_policies(i)) for i in range(draw(st.integers(0, 4)))]
    services = []
    for i in range(draw(st.integers(0, 2))):
        services.append(
            Service(
                metadata=ObjectMeta(name=f"svc-{i}", namespace=draw(namespaces)),
                selector=Selector(match_labels=LabelSet(draw(label_dicts))),
                ports=[ServicePort(port=80, target_port=draw(st.sampled_from((8080, "http"))),
                                   name="main")],
            )
        )
    bindings = EndpointController().bind(services, pods)
    return pods, policies, bindings


def engines():
    naive = ClusterNetwork(
        enforcer=NetworkPolicyEnforcer(NAMESPACE_LABELS, use_index=False)
    )
    compiled = ClusterNetwork(enforcer=NetworkPolicyEnforcer(NAMESPACE_LABELS))
    return naive, compiled


# ---------------------------------------------------------------------------
# Differential properties
# ---------------------------------------------------------------------------


class TestCompiledEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(scenarios())
    def test_decisions_identical_for_every_pair_and_port(self, scenario):
        pods, policies, _ = scenario
        naive, compiled = engines()
        index = PolicyIndex(policies)
        for source in pods:
            for destination in pods:
                for port in (*PORTS, 9000):
                    expected = naive.enforcer.check_ingress(
                        policies, source, destination, port
                    )
                    via_list = compiled.enforcer.check_ingress(
                        policies, source, destination, port
                    )
                    via_index = compiled.enforcer.check_ingress(
                        index, source, destination, port
                    )
                    assert via_list == expected
                    assert via_index == expected

    @settings(max_examples=40, deadline=None)
    @given(scenarios())
    def test_isolating_sets_and_partition_identical(self, scenario):
        pods, policies, _ = scenario
        naive, compiled = engines()
        index = PolicyIndex(policies)
        for pod in pods:
            expected = naive.enforcer.policies_isolating(policies, pod)
            assert compiled.enforcer.policies_isolating(policies, pod) == expected
            assert list(index.isolating(pod)) == expected
        isolated, unprotected = compiled.enforcer.partition_pods(policies, pods)
        assert isolated == naive.enforcer.isolated_pods(policies, pods)
        assert unprotected == naive.enforcer.unprotected_pods(policies, pods)

    @settings(max_examples=30, deadline=None)
    @given(scenarios())
    def test_reachable_surfaces_identical(self, scenario):
        pods, policies, bindings = scenario
        naive, compiled = engines()
        matrix = compiled.reachability_matrix(policies, pods, bindings)
        for source in pods:
            expected = naive.reachable_endpoints(policies, source, pods, bindings)
            assert compiled.reachable_endpoints(policies, source, pods, bindings) == expected
            assert matrix.endpoints_from(source) == expected
        assert matrix.all_pairs() == {
            (source.namespace, source.name): naive.reachable_endpoints(
                policies, source, pods, bindings
            )
            for source in pods
        }

    @settings(max_examples=20, deadline=None)
    @given(scenarios())
    def test_service_connections_identical(self, scenario):
        pods, policies, bindings = scenario
        naive, compiled = engines()
        matrix = compiled.reachability_matrix(policies, pods, bindings)
        for source in pods[:2]:
            for binding in bindings:
                for port in (80, 443):
                    expected = naive.connect_pod_to_service(
                        policies, source, binding, port
                    )
                    assert (
                        compiled.connect_pod_to_service(policies, source, binding, port)
                        == expected
                    )
                    assert matrix.connect_via_service(source, binding, port) == expected


# ---------------------------------------------------------------------------
# Cache invalidation across real cluster mutations
# ---------------------------------------------------------------------------


class TestDecisionClasses:
    """Pin the matrix's decision classes: port-free sets collapse, ported ones do not."""

    def _scenario(self, rule_ports):
        web = _make_running(
            "web-0",
            "default",
            {"app": "web"},
            [
                Socket(port=p, protocol="TCP", interface="0.0.0.0", container="main")
                for p in (80, 8080, 9090)
            ],
            "10.9.0.1",
        )
        client = _make_running("client-0", "default", {"app": "client"}, [], "10.9.0.2")
        policy = NetworkPolicy(
            metadata=ObjectMeta(name="allow-client", namespace="default"),
            pod_selector=equality_selector(app="web"),
            policy_types=["Ingress"],
            ingress=[
                NetworkPolicyRule(
                    peers=[NetworkPolicyPeer(pod_selector=equality_selector(app="client"))],
                    ports=rule_ports,
                )
            ],
        )
        return [web, client], [policy]

    def test_first_decision_is_memoized(self):
        # No tier sits before the memo: a fresh matrix's first decision
        # already fills it, and the second is served from it.
        pods, policies = self._scenario([])
        naive, compiled = engines()
        web, client = pods
        matrix = compiled.reachability_matrix(policies, pods, [])
        first = matrix.decision(client, web, 80)
        assert first == naive.enforcer.check_ingress(policies, client, web, 80)
        assert len(matrix._decisions) == 1
        assert matrix.decision(client, web, 80) is first

    def test_port_free_isolating_sets_share_one_decision_class(self):
        pods, policies = self._scenario([])
        naive, compiled = engines()
        web, client = pods
        matrix = compiled.reachability_matrix(policies, pods, [])
        for _ in range(2):
            for port in (80, 8080, 9090):
                expected = naive.enforcer.check_ingress(policies, client, web, port)
                assert matrix.decision(client, web, port) == expected
        # No isolating rule lists ports, so every probed port of the
        # destination resolves from one port-collapsed memo entry.
        assert len(matrix._decisions) == 1

    def test_port_constrained_sets_keep_per_port_classes(self):
        pods, policies = self._scenario([NetworkPolicyPort(port=80)])
        naive, compiled = engines()
        web, client = pods
        matrix = compiled.reachability_matrix(policies, pods, [])
        for _ in range(2):
            for port in (80, 8080, 9090):
                expected = naive.enforcer.check_ingress(policies, client, web, port)
                assert matrix.decision(client, web, port) == expected
        # A rule that lists ports keeps decisions port-keyed: one memo
        # entry per probed port survives the tier.
        assert len(matrix._decisions) == 3


def _naive_twin_decisions(cluster: Cluster, source, destination, port):
    """Evaluate one attempt on a naive twin of the cluster's current state."""
    naive = ClusterNetwork(
        enforcer=NetworkPolicyEnforcer(
            {
                namespace: cluster.enforcer.namespace_labels(namespace)
                for namespace in cluster.api.store.namespaces()
            },
            use_index=False,
        )
    )
    return naive.connect_pod_to_pod(
        cluster.network_policies(), source, destination, port
    )


class TestEpochInvalidation:
    def _cluster(self):
        from repro.cluster import BehaviorRegistry, ContainerBehavior, ListenSpec

        registry = BehaviorRegistry()
        registry.register(
            "example/web",
            ContainerBehavior(listen_on_declared=True, extra_listens=[ListenSpec(port=9999)]),
        )
        cluster = Cluster(name="epoch", worker_count=2, behaviors=registry, seed=13)
        cluster.install(
            [make_deployment(replicas=2), make_service(), make_pod("attacker")],
            app_name="web",
        )
        return cluster

    def _assert_matches_naive_twin(self, cluster):
        attacker = cluster.running_pod("attacker")
        web = cluster.running_pod("web-0")
        for port in (8080, 9999):
            assert cluster.connect(attacker, web, port) == _naive_twin_decisions(
                cluster, attacker, web, port
            )

    def test_epoch_moves_on_every_mutation_kind(self):
        cluster = self._cluster()
        epochs = [cluster.policy_epoch]
        cluster.api.apply(deny_all_policy("deny"))
        epochs.append(cluster.policy_epoch)
        cluster.api.delete("NetworkPolicy", "deny")
        epochs.append(cluster.policy_epoch)
        cluster.restart_application("web")
        epochs.append(cluster.policy_epoch)
        cluster.install([make_pod("extra")], app_name="extra")
        epochs.append(cluster.policy_epoch)
        cluster.uninstall("extra")
        epochs.append(cluster.policy_epoch)
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)

    def test_index_is_cached_within_an_epoch_and_rebuilt_across(self):
        cluster = self._cluster()
        first = cluster.policy_index()
        assert cluster.policy_index() is first
        cluster.api.apply(deny_all_policy("deny"))
        second = cluster.policy_index()
        assert second is not first
        assert [p.name for p in second.policies] == ["deny"]

    def test_decisions_track_policy_install_and_uninstall(self):
        cluster = self._cluster()
        attacker = cluster.running_pod("attacker")
        web = cluster.running_pod("web-0")
        assert cluster.connect(attacker, web, 8080).success
        self._assert_matches_naive_twin(cluster)

        cluster.api.apply(deny_all_policy("deny"))
        assert not cluster.connect(attacker, web, 8080).success
        self._assert_matches_naive_twin(cluster)

        cluster.api.apply(
            allow_ports_policy("allow-http", equality_selector(app="web"), [8080])
        )
        assert cluster.connect(attacker, web, 8080).success
        assert not cluster.connect(attacker, web, 9999).success
        self._assert_matches_naive_twin(cluster)

        cluster.api.delete("NetworkPolicy", "deny")
        cluster.api.delete("NetworkPolicy", "allow-http")
        assert cluster.connect(attacker, web, 9999).success
        self._assert_matches_naive_twin(cluster)

    def test_reachable_surface_tracks_restart_dynamic_ports(self):
        from repro.cluster import BehaviorRegistry, behavior_with_dynamic_ports

        registry = BehaviorRegistry()
        registry.register("example/web", behavior_with_dynamic_ports(1))
        cluster = Cluster(name="epoch-restart", worker_count=1, behaviors=registry, seed=5)
        cluster.install([make_deployment(), make_pod("attacker")], app_name="web")
        attacker = cluster.running_pod("attacker")
        before = {e.port for e in cluster.reachable_from(attacker) if e.kind == "pod"}
        cluster.restart_application("web")
        after = {e.port for e in cluster.reachable_from(attacker) if e.kind == "pod"}
        assert before != after  # dynamic port moved and the cache followed
        web = cluster.running_pod("web-0")
        assert after == {s.port for s in web.sockets if s.reachable_from_network}

    def test_running_pod_raises_dedicated_error(self):
        cluster = self._cluster()
        with pytest.raises(PodNotFound) as excinfo:
            cluster.running_pod("ghost", "nowhere")
        assert excinfo.value.name == "ghost"
        assert excinfo.value.namespace == "nowhere"


# ---------------------------------------------------------------------------
# Class-grouped all-pairs: deterministic edge cases
# ---------------------------------------------------------------------------


def _make_running(name, namespace, labels, sockets, ip):
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        spec=PodSpec(
            containers=[
                Container(name="main", image="grp/app", ports=[ContainerPort(8080, name="http")])
            ]
        ),
    )
    return RunningPod(pod=pod, ip=ip, node=Node(name="grp-node"), sockets=sockets)


class TestGroupedAllPairs:
    """The class-grouped all-pairs path must equal per-source scans exactly.

    The deterministic scenario pins its two exact corrections: self-exclusion
    within an equivalence class, and a loopback-bound backend that is
    reachable through its service only by the backend pod itself.
    """

    def _scenario(self):
        replicas = [
            _make_running(
                f"web-{i}",
                "default",
                {"app": "web"},
                [
                    Socket(port=8080, protocol="TCP", container="main"),
                    Socket(port=6060, protocol="TCP", interface="127.0.0.1", container="main"),
                ],
                f"10.0.0.{i + 1}",
            )
            for i in range(3)
        ]
        client = _make_running("client", "default", {"role": "client"}, [], "10.0.0.9")
        # The service targets the loopback-bound debug port: only each
        # backend pod itself can reach it through the service.
        loopback_service = Service(
            metadata=ObjectMeta(name="debug", namespace="default"),
            selector=equality_selector(app="web"),
            ports=[ServicePort(port=60, target_port=6060, name="debug")],
        )
        open_service = Service(
            metadata=ObjectMeta(name="web", namespace="default"),
            selector=equality_selector(app="web"),
            ports=[ServicePort(port=80, target_port=8080, name="http")],
        )
        pods = replicas + [client]
        bindings = EndpointController().bind([loopback_service, open_service], pods)
        return pods, bindings

    def test_grouped_equals_per_source_with_loopback_service(self):
        pods, bindings = self._scenario()
        naive, compiled = engines()
        for policies in ([], [deny_all_policy("deny", namespace="default")]):
            matrix = compiled.reachability_matrix(policies, pods, bindings)
            expected = {
                (source.namespace, source.name): naive.reachable_endpoints(
                    policies, source, pods, bindings
                )
                for source in pods
            }
            assert matrix.all_pairs() == expected

    def test_loopback_service_endpoint_is_self_only(self):
        pods, bindings = self._scenario()
        _, compiled = engines()
        surfaces = compiled.reachability_matrix([], pods, bindings).all_pairs()
        for source_key, endpoints in surfaces.items():
            service_ports = {(e.name, e.port) for e in endpoints if e.kind == "service"}
            if source_key[1].startswith("web-"):
                assert service_ports == {("debug", 60), ("web", 80)}
            else:
                assert service_ports == {("web", 80)}

    def test_include_loopback_surfaces_match(self):
        pods, bindings = self._scenario()
        naive, compiled = engines()
        matrix = compiled.reachability_matrix([], pods, bindings, include_loopback=True)
        for source in pods:
            assert matrix.all_pairs()[(source.namespace, source.name)] == (
                naive.reachable_endpoints(
                    [], source, pods, bindings, include_loopback=True
                )
            )


# ---------------------------------------------------------------------------
# Bitset-vectorized all-pairs: vectorized == naive, byte-identical
# ---------------------------------------------------------------------------


def _assert_matches_naive(policies, pods, bindings, include_loopback=False):
    """Vectorized and naive surfaces must be byte-identical."""
    naive, compiled = engines()
    vector = compiled.reachability_matrix(
        policies, pods, bindings, include_loopback=include_loopback
    )
    expected = {
        pod.ident: naive.reachable_endpoints(
            policies, pod, pods, bindings, include_loopback=include_loopback
        )
        for pod in pods
    }
    assert vector.all_pairs() == expected
    return expected


class TestVectorizedAllPairs:
    """The bitmask engine against the naive reference, on the exact cases a
    class surface has to special-case: self-exclusion inside an equivalence
    class, loopback backends reachable via a service only from the backend
    itself, named ports re-resolved after a restart, matchExpressions
    selectors, and empty endpoint universes.
    """

    def _replica_scenario(self):
        replicas = [
            _make_running(
                f"web-{i}",
                "default",
                {"app": "web"},
                [
                    Socket(port=8080, protocol="TCP", container="main"),
                    Socket(port=6060, protocol="TCP", interface="127.0.0.1",
                           container="main"),
                ],
                f"10.0.0.{i + 1}",
            )
            for i in range(3)
        ]
        client = _make_running("client", "default", {"role": "client"}, [], "10.0.0.9")
        debug = Service(
            metadata=ObjectMeta(name="debug", namespace="default"),
            selector=equality_selector(app="web"),
            ports=[ServicePort(port=60, target_port=6060, name="debug")],
        )
        pods = replicas + [client]
        return pods, EndpointController().bind([debug], pods)

    def test_self_exclusion_within_equivalence_class(self):
        pods, bindings = self._replica_scenario()
        surfaces = _assert_matches_naive([], pods, bindings)
        for i in range(3):
            pod_names = {
                e.name for e in surfaces[("default", f"web-{i}")] if e.kind == "pod"
            }
            # Same class, same surface computation -- but never itself.
            assert pod_names == {f"web-{j}" for j in range(3) if j != i}

    def test_copied_source_is_excluded_by_identity(self):
        # A pod is never part of its own surface, even when the caller hands
        # in a copy of it instead of the snapshot's own object: the oracle
        # scan and the bitset engine both exclude by (namespace, name).
        pods, bindings = self._replica_scenario()
        expected = _assert_matches_naive([], pods, bindings)[("default", "web-0")]
        assert [e.name for e in expected if e.kind == "pod"] == ["web-1", "web-2"]
        source = copy.copy(pods[0])
        for network in engines():
            assert network.reachable_endpoints([], source, pods, bindings) == expected

    def test_loopback_service_reachable_from_backend_only(self):
        pods, bindings = self._replica_scenario()
        for include_loopback in (False, True):
            surfaces = _assert_matches_naive(
                [], pods, bindings, include_loopback=include_loopback
            )
            for key, endpoints in surfaces.items():
                has_debug = any(e.kind == "service" and e.name == "debug"
                                for e in endpoints)
                # same_pod service delivery: only each backend reaches the
                # loopback-bound target port through the service.
                assert has_debug == key[1].startswith("web-")

    def test_named_ports_resolved_after_restart(self):
        from repro.cluster import BehaviorRegistry, behavior_with_dynamic_ports
        from repro.k8s import Deployment, PodTemplateSpec

        registry = BehaviorRegistry()
        registry.register("example/web", behavior_with_dynamic_ports(1))
        cluster = Cluster(name="vec-restart", worker_count=1, behaviors=registry, seed=11)
        labels = {"app": "web"}
        deployment = Deployment(
            metadata=ObjectMeta(name="web", namespace="default", labels=LabelSet(labels)),
            replicas=2,
            selector=equality_selector(**labels),
            template=PodTemplateSpec(
                metadata=ObjectMeta(name="web", namespace="default",
                                    labels=LabelSet(labels)),
                spec=PodSpec(
                    containers=[
                        Container(
                            name="web",
                            image="example/web",
                            ports=[ContainerPort(8080, name="http")],
                        )
                    ]
                ),
            ),
        )
        cluster.install(
            [deployment, make_service(target_port="http"), make_pod("attacker")],
            app_name="web",
        )
        named_port_policy = NetworkPolicy(
            metadata=ObjectMeta(name="allow-http-by-name", namespace="default"),
            pod_selector=equality_selector(app="web"),
            policy_types=["Ingress"],
            ingress=[NetworkPolicyRule(
                peers=[], ports=[NetworkPolicyPort(port="http")]
            )],
        )
        cluster.api.apply(named_port_policy)

        def naive_check():
            pods = cluster.running_pods()
            policies = cluster.network_policies()
            bindings = cluster.service_bindings()
            naive = ClusterNetwork(
                enforcer=NetworkPolicyEnforcer(
                    {
                        namespace: cluster.enforcer.namespace_labels(namespace)
                        for namespace in cluster.api.store.namespaces()
                    },
                    use_index=False,
                )
            )
            compiled = ClusterNetwork(enforcer=NetworkPolicyEnforcer(
                {
                    namespace: cluster.enforcer.namespace_labels(namespace)
                    for namespace in cluster.api.store.namespaces()
                }
            ))
            vector = compiled.reachability_matrix(policies, pods, bindings)
            expected = {
                pod.ident: naive.reachable_endpoints(policies, pod, pods, bindings)
                for pod in pods
            }
            assert vector.all_pairs() == expected
            return expected

        before = naive_check()
        sockets_before = {
            (p.name, s.port) for p in cluster.running_pods() for s in p.sockets
        }
        cluster.restart_application("web")
        after = naive_check()
        sockets_after = {
            (p.name, s.port) for p in cluster.running_pods() for s in p.sockets
        }
        # The restart moved the dynamic sockets, yet the named-port policy
        # keeps only "http" reachable: the surfaces stay put and both
        # paths re-resolved the name against the fresh sockets identically.
        assert sockets_before != sockets_after
        assert before == after

    def test_match_expressions_selectors(self):
        pods = [
            _make_running("web-0", "default", {"app": "web", "tier": "frontend"},
                          [Socket(port=8080, protocol="TCP", container="main")],
                          "10.0.0.1"),
            _make_running("db-0", "default", {"app": "db"},
                          [Socket(port=9090, protocol="TCP", container="main")],
                          "10.0.0.2"),
            _make_running("cache-0", "prod", {"app": "cache", "tier": "backend"},
                          [Socket(port=80, protocol="TCP", container="main")],
                          "10.0.0.3"),
        ]
        expression_policies = [
            NetworkPolicy(
                metadata=ObjectMeta(name=f"expr-{op.lower()}", namespace=namespace),
                pod_selector=Selector(match_expressions=(
                    LabelSelectorRequirement(
                        key="app",
                        operator=op,
                        values=("web", "cache") if op in ("In", "NotIn") else (),
                    ),
                )),
                policy_types=["Ingress"],
                ingress=[NetworkPolicyRule(
                    peers=[NetworkPolicyPeer(pod_selector=Selector(match_expressions=(
                        LabelSelectorRequirement(key="tier", operator="Exists"),
                    )))],
                    ports=[],
                )],
            )
            for op, namespace in (
                ("In", "default"), ("NotIn", "default"),
                ("Exists", "prod"), ("DoesNotExist", "prod"),
            )
        ]
        for policies in ([expression_policies[0]], expression_policies[:2],
                         expression_policies):
            _assert_matches_naive(policies, pods, [])

    def test_empty_universe_fleets(self):
        # No pods at all; pods with no sockets; loopback-only sockets hidden
        # by include_loopback=False: every variant must agree on both paths.
        silent = [
            _make_running("mute-0", "default", {"app": "mute"}, [], "10.0.0.1"),
            _make_running("mute-1", "prod", {"app": "mute"}, [], "10.0.0.2"),
        ]
        loopback_only = [
            _make_running(
                "shy-0", "default", {"app": "shy"},
                [Socket(port=6060, protocol="TCP", interface="127.0.0.1",
                        container="main")],
                "10.0.0.3",
            )
        ]
        assert _assert_matches_naive([], [], []) == {}
        surfaces = _assert_matches_naive([], silent, [])
        assert all(endpoints == [] for endpoints in surfaces.values())
        surfaces = _assert_matches_naive(
            [deny_all_policy("deny", namespace="default")], silent + loopback_only, []
        )
        assert all(endpoints == [] for endpoints in surfaces.values())
        # With loopback included the universe is non-empty again.
        surfaces = _assert_matches_naive([], loopback_only, [],
                                            include_loopback=True)
        assert surfaces[("default", "shy-0")] == []


# ---------------------------------------------------------------------------
# EndpointUniverse.materialize: numpy and pure-Python bit walks == bit scan
# ---------------------------------------------------------------------------


def _universe_of(size: int) -> EndpointUniverse:
    """A bare universe of ``size`` entries; ``materialize`` reads only these."""
    universe = object.__new__(EndpointUniverse)
    universe.size = size
    universe.pod_entries = [f"entry-{i}" for i in range(size)]
    universe.full_mask = (1 << size) - 1
    return universe


@st.composite
def sized_masks(draw):
    size = draw(st.integers(min_value=0, max_value=2000))
    full = (1 << size) - 1
    bits = st.integers(min_value=0, max_value=max(size - 1, 0))
    mask = draw(
        st.one_of(
            st.just(0),
            st.just(full),
            bits.map(lambda bit: (1 << bit) & full),
            st.lists(bits, max_size=16).map(lambda on: sum({1 << bit for bit in on}) & full),
            st.integers(min_value=0, max_value=full),
        )
    )
    return size, mask


class TestMaterializeBackends:
    """Both bit-walk backends against the plain per-bit scan.

    numpy is imported on first use when installed; blocking its loader
    forces the pure-Python ``_BYTE_BITS`` walk, which no surface test
    reaches while numpy is present.
    """

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @given(case=sized_masks())
    @example(case=(0, 0))
    @example(case=(1, 1))
    @example(case=(7, 1 << 6))
    @example(case=(9, 1 << 8))
    @example(case=(1999, 1 << 1998))
    @example(case=(2000, (1 << 2000) - 1))
    @example(case=(2000, ((1 << 2000) - 1) ^ 1))
    @settings(max_examples=150, deadline=None)
    def test_backend_matches_bit_scan(self, backend, case):
        size, mask = case
        universe = _universe_of(size)
        entries = universe.pod_entries
        expected = [entries[i] for i in range(size) if mask >> i & 1]
        if backend == "numpy":
            if network._numpy() is None:
                pytest.skip("numpy is not installed")
            assert universe.materialize(mask) == expected
        else:
            with mock.patch.object(network, "_numpy", lambda: None):
                assert universe.materialize(mask) == expected


# ---------------------------------------------------------------------------
# Endpoint-controller epoch: bindings re-reconcile only when state moved
# ---------------------------------------------------------------------------


class TestServiceBindingEpoch:
    def _cluster(self):
        cluster = Cluster(name="bindings", worker_count=1, seed=7)
        cluster.install(
            [make_deployment(replicas=2), make_service(), make_pod("attacker")],
            app_name="web",
        )
        return cluster

    def test_bindings_cached_within_epoch(self):
        cluster = self._cluster()
        first = cluster.service_bindings()
        assert cluster.service_bindings()[0] is first[0]  # no re-reconcile

    def test_bindings_follow_service_and_pod_mutations(self):
        cluster = self._cluster()
        assert {b.service.name for b in cluster.service_bindings()} == {"web"}
        cluster.api.apply(
            Service(
                metadata=ObjectMeta(name="late", namespace="default"),
                selector=equality_selector(app="web"),
                ports=[ServicePort(port=81, target_port=8080, name="http")],
            )
        )
        assert {b.service.name for b in cluster.service_bindings()} == {"web", "late"}
        before = {backend.name for b in cluster.service_bindings() for backend in b.backends}
        cluster.uninstall("web")
        after = {backend.name for b in cluster.service_bindings() for backend in b.backends}
        assert before and not after

    def test_bindings_follow_restart(self):
        cluster = self._cluster()
        first = cluster.service_bindings()
        cluster.restart_application("web")
        second = cluster.service_bindings()
        assert second[0] is not first[0]
