"""Unit tests for IPAM, behaviours, nodes, runtime and the API server."""

import pytest

from repro.cluster import (
    AddressPool,
    AdmissionError,
    AlreadyExistsError,
    APIServer,
    BehaviorRegistry,
    ClusterIPAM,
    ContainerBehavior,
    ContainerRuntime,
    IPAMError,
    ListenSpec,
    Node,
    NotFoundError,
    Scheduler,
    SchedulingError,
    behavior_with_closed_ports,
    behavior_with_dynamic_ports,
    behavior_with_undeclared_ports,
    faithful_behavior,
)
from repro.k8s import Container, ContainerPort, EnvVar, ObjectMeta, Pod, PodSpec
from tests.conftest import make_pod


class TestAddressPool:
    def test_allocation_is_sequential_and_idempotent(self):
        pool = AddressPool("10.0.0.0/24")
        first = pool.allocate("a")
        second = pool.allocate("b")
        assert first != second
        assert pool.allocate("a") == first

    def test_release_recycles_addresses(self):
        pool = AddressPool("10.0.0.0/24")
        address = pool.allocate("a")
        pool.release("a")
        assert pool.allocate("b") == address

    def test_lookup_and_owner_of(self):
        pool = AddressPool("10.0.0.0/24")
        address = pool.allocate("a")
        assert pool.lookup("a") == address
        assert pool.owner_of(address) == "a"
        assert pool.lookup("missing") is None

    def test_contains(self):
        pool = AddressPool("10.244.0.0/16")
        assert pool.contains("10.244.3.7")
        assert not pool.contains("192.168.0.1")
        assert not pool.contains("not-an-ip")

    def test_exhaustion_raises(self):
        pool = AddressPool("10.0.0.0/30")
        pool.allocate("a")
        with pytest.raises(IPAMError):
            for index in range(10):
                pool.allocate(f"owner-{index}")

    def test_cluster_ipam_classification(self):
        ipam = ClusterIPAM()
        pod_ip = ipam.pods.allocate("default/web-0")
        service_ip = ipam.services.allocate("default/web")
        node_ip = ipam.nodes.allocate("node-1")
        assert ipam.classify(pod_ip) == "pod"
        assert ipam.classify(service_ip) == "service"
        assert ipam.classify(node_ip) == "node"
        assert ipam.classify("8.8.8.8") == "external"


class TestBehaviors:
    def test_faithful_behavior_opens_declared_ports(self):
        container = Container(name="c", ports=[ContainerPort(8080)])
        listens = faithful_behavior().effective_listens(container)
        assert [listen.port for listen in listens] == [8080]

    def test_undeclared_ports_behavior(self):
        container = Container(name="c", ports=[ContainerPort(8080)])
        behavior = behavior_with_undeclared_ports([9999])
        ports = {listen.port for listen in behavior.effective_listens(container)}
        assert ports == {8080, 9999}

    def test_closed_ports_behavior_skips_declared(self):
        container = Container(name="c", ports=[ContainerPort(8080), ContainerPort(9090)])
        behavior = behavior_with_closed_ports([9090])
        ports = {listen.port for listen in behavior.effective_listens(container)}
        assert ports == {8080}

    def test_dynamic_ports_behavior(self):
        behavior = behavior_with_dynamic_ports(2)
        assert behavior.dynamic_listen_count() == 2

    def test_static_port_env_pins_dynamic_port(self):
        behavior = ContainerBehavior(
            extra_listens=[ListenSpec(port=None)], static_port_env="FIXED_PORT"
        )
        container = Container(name="c", env=[EnvVar("FIXED_PORT", "7777")])
        ports = {listen.port for listen in behavior.effective_listens(container)}
        assert 7777 in ports

    def test_registry_lookup_falls_back_to_faithful(self):
        registry = BehaviorRegistry()
        assert registry.lookup("unknown/image").listen_on_declared is True
        assert "unknown/image" not in registry

    def test_registry_merge(self):
        first, second = BehaviorRegistry(), BehaviorRegistry()
        first.register("a", faithful_behavior())
        second.register("b", faithful_behavior())
        merged = first.merged_with(second)
        assert set(merged.images()) == {"a", "b"}


class TestNode:
    def test_worker_node_defaults(self):
        node = Node(name="worker-1")
        assert node.schedulable
        assert 22 in node.host_port_numbers()
        assert 6443 not in node.host_port_numbers()

    def test_control_plane_node(self):
        node = Node(name="cp", control_plane=True)
        assert not node.schedulable
        assert 6443 in node.host_port_numbers()

    def test_assignment_tracking(self):
        node = Node(name="worker-1")
        node.assign("pod-a")
        node.assign("pod-a")
        assert node.pod_names == ["pod-a"]
        node.unassign("pod-a")
        assert node.free_capacity == node.capacity


class TestContainerRuntime:
    def _runtime_and_pod(self, behavior=None, image="img", ports=(8080,)):
        registry = BehaviorRegistry()
        if behavior is not None:
            registry.register(image, behavior)
        runtime = ContainerRuntime(registry, seed=3)
        pod = Pod(
            metadata=ObjectMeta(name="p"),
            spec=PodSpec(containers=[Container(name="c", image=image,
                                               ports=[ContainerPort(p) for p in ports])]),
        )
        node = Node(name="worker-1", ip="192.168.0.5")
        return runtime, pod, node

    def test_start_pod_opens_declared_ports(self):
        runtime, pod, node = self._runtime_and_pod()
        running = runtime.start_pod(pod, "10.244.0.2", node)
        assert running.listening_ports() == {8080}

    def test_dynamic_ports_change_on_restart(self):
        runtime, pod, node = self._runtime_and_pod(behavior_with_dynamic_ports(1))
        running = runtime.start_pod(pod, "10.244.0.2", node)
        before = running.listening_ports() - {8080}
        runtime.restart_pod(running)
        after = running.listening_ports() - {8080}
        assert before and after and before != after
        assert running.restart_count == 1

    def test_static_ports_survive_restart(self):
        runtime, pod, node = self._runtime_and_pod()
        running = runtime.start_pod(pod, "10.244.0.2", node)
        runtime.restart_pod(running)
        assert running.listening_ports() == {8080}

    def test_host_network_pod_sees_host_ports(self):
        runtime, pod, node = self._runtime_and_pod()
        pod.spec.host_network = True
        running = runtime.start_pod(pod, node.ip, node)
        assert 22 in running.listening_ports()
        assert 8080 in running.listening_ports()

    def test_loopback_sockets_not_reachable_from_network(self):
        behavior = ContainerBehavior(
            listen_on_declared=True,
            extra_listens=[ListenSpec(port=6060, interface="127.0.0.1")],
        )
        runtime, pod, node = self._runtime_and_pod(behavior)
        running = runtime.start_pod(pod, "10.244.0.2", node)
        assert 6060 in running.listening_ports(include_loopback=True)
        assert 6060 not in running.listening_ports(include_loopback=False)

    def test_named_ports_resolution(self):
        runtime, pod, node = self._runtime_and_pod()
        pod.spec.containers[0].ports = [ContainerPort(8080, name="http")]
        running = runtime.start_pod(pod, "10.244.0.2", node)
        assert running.named_ports() == {"http": 8080}

    def test_socket_deduplication(self):
        behavior = ContainerBehavior(
            listen_on_declared=True, extra_listens=[ListenSpec(port=8080)]
        )
        runtime, pod, node = self._runtime_and_pod(behavior)
        running = runtime.start_pod(pod, "10.244.0.2", node)
        assert len([s for s in running.sockets if s.port == 8080]) == 1


class TestScheduler:
    def test_least_loaded_placement(self):
        nodes = [Node(name="w1"), Node(name="w2")]
        scheduler = Scheduler(nodes)
        scheduler.schedule(make_pod("a"))
        scheduler.schedule(make_pod("b"))
        assert len(nodes[0].pod_names) == 1
        assert len(nodes[1].pod_names) == 1

    def test_node_name_pinning(self):
        nodes = [Node(name="w1"), Node(name="w2")]
        scheduler = Scheduler(nodes)
        pod = make_pod("pinned")
        pod.spec.node_name = "w2"
        assert scheduler.schedule(pod).name == "w2"

    def test_unknown_pinned_node_raises(self):
        scheduler = Scheduler([Node(name="w1")])
        pod = make_pod("pinned")
        pod.spec.node_name = "missing"
        with pytest.raises(SchedulingError):
            scheduler.schedule(pod)

    def test_no_schedulable_nodes_raises(self):
        scheduler = Scheduler([Node(name="cp", control_plane=True)])
        with pytest.raises(SchedulingError):
            scheduler.schedule(make_pod("a"))

    def test_node_for_lookup(self):
        nodes = [Node(name="w1")]
        scheduler = Scheduler(nodes)
        scheduler.schedule(make_pod("a"))
        assert scheduler.node_for("a").name == "w1"
        assert scheduler.node_for("missing") is None


class TestAPIServer:
    def test_apply_and_get(self):
        api = APIServer()
        api.apply(make_pod("a"))
        assert api.store.get("Pod", "a").name == "a"

    def test_get_missing_raises(self):
        with pytest.raises(NotFoundError):
            APIServer().store.get("Pod", "missing")

    def test_duplicate_put_without_replace_raises(self):
        api = APIServer()
        api.apply(make_pod("a"))
        with pytest.raises(AlreadyExistsError):
            api.store.put(make_pod("a"))

    def test_delete(self):
        api = APIServer()
        api.apply(make_pod("a"))
        api.delete("Pod", "a")
        assert not api.store.exists("Pod", "a")

    def test_list_by_kind_and_namespace(self):
        api = APIServer()
        api.apply(make_pod("a"))
        api.apply(make_pod("b", namespace="prod"))
        assert len(api.store.list("Pod")) == 2
        assert len(api.store.list("Pod", namespace="prod")) == 1

    def test_admission_controller_can_reject(self):
        class DenyAll:
            name = "deny-all"

            def review(self, obj, store):
                raise AdmissionError("nope")

        api = APIServer()
        api.register_admission_controller(DenyAll())
        with pytest.raises(AdmissionError):
            api.apply(make_pod("a"))
        assert api.denied_objects() == ["Pod/default/a"]

    def test_unregister_admission_controller(self):
        class DenyAll:
            name = "deny-all"

            def review(self, obj, store):
                raise AdmissionError("nope")

        api = APIServer()
        api.register_admission_controller(DenyAll())
        api.unregister_admission_controller("deny-all")
        api.apply(make_pod("a"))
