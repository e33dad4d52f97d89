"""The cluster facade: a single-process stand-in for Minikube.

:class:`Cluster` wires the API server, scheduler, container runtime,
endpoint controller, DNS and CNI together and exposes the operations the
evaluation pipeline needs:

* ``install`` a rendered Helm chart (or a list of objects) as an *application*;
* ``uninstall`` it again (the paper recreates a clean cluster per chart);
* ``restart_application`` to force new ephemeral ports (double snapshot, M2);
* query running pods, services, bindings and policies;
* simulate connections and compute lateral-movement reachability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..helm import RenderedChart
from ..k8s import (
    CronJob,
    DaemonSet,
    KubernetesObject,
    NetworkPolicy,
    Pod,
    Service,
    Workload,
    make_namespace,
)
from .apiserver import APIServer, AdmissionController
from .behavior import BehaviorRegistry
from .cni import NetworkPolicyEnforcer
from .dns import ClusterDNS
from .endpoints import EndpointController, ServiceBinding
from .errors import ClusterError, PodNotFound
from .ipam import ClusterIPAM
from .network import ClusterNetwork, ConnectionAttempt, ReachabilityMatrix, ReachableEndpoint
from .node import Node
from .policy_index import PolicyIndex
from .runtime import ContainerRuntime, RunningPod
from .scheduler import Scheduler

_NAME_CLEANUP_RE = re.compile(r"[^a-z0-9-]")


def _sanitize(name: str) -> str:
    cleaned = _NAME_CLEANUP_RE.sub("-", name.lower()).strip("-")
    return cleaned or "pod"


def build_node_set(name: str, worker_count: int) -> list[Node]:
    """The node set of a cluster: one control-plane plus ``worker_count`` workers.

    Shared by :class:`Cluster` and the install-free observation substrate
    (:mod:`repro.cluster.session`) -- fast==full equivalence depends on both
    building exactly the same nodes (names, roles, host-process tables).
    """
    nodes = [Node(name=f"{name}-control-plane", control_plane=True)]
    for index in range(worker_count):
        nodes.append(Node(name=f"{name}-worker-{index + 1}"))
    return nodes


def expand_workload_pods(workload: Workload, worker_count: int) -> list[Pod]:
    """Expand a workload into the pods the cluster would start for it.

    ``worker_count`` is the number of schedulable nodes (DaemonSets run one
    replica per worker).  Shared by :class:`Cluster` and the install-free
    fast observation path (:mod:`repro.cluster.session`), so both expand
    workloads identically by construction.
    """
    if isinstance(workload, DaemonSet):
        replicas = worker_count
    else:
        replicas = workload.replica_count()
    pods: list[Pod] = []
    for index in range(replicas):
        pod_name = _sanitize(f"{workload.name}-{index}")
        pods.append(
            Pod.from_template(
                workload.pod_template(),
                name=pod_name,
                namespace=workload.namespace,
            )
        )
    return pods


def namespace_update(
    namespace: str,
    labels: Mapping[str, str] | None,
    current: Mapping[str, str] | None,
) -> tuple[dict[str, str], bool] | None:
    """How ensuring ``namespace`` changes it: the cluster's namespace-label rule.

    ``labels`` are a ``Namespace`` object's own (``None`` when a release is
    installed into the namespace); ``current`` are the namespace's labels
    now, ``None`` when it does not exist yet.  Returns ``None`` when nothing
    changes, else the labels it ends up with -- ``labels``, or
    ``kubernetes.io/metadata.name`` when those are empty -- and whether the
    ``Namespace`` must be applied (validated and stored) first: when it is
    new, or when its own labels change it.  Shared by :class:`Cluster` and
    the install-free deployment (:mod:`repro.cluster.session`).
    """
    effective = dict(labels or {"kubernetes.io/metadata.name": namespace})
    if current is None:
        return effective, True
    if labels is None:
        # A release never clobbers labels a Namespace object set earlier; a
        # namespace created behind the enforcer's back (direct ``api.apply``)
        # still gets its default, or namespaceSelector rules never match.
        return None if current else (effective, False)
    return effective, current != effective


@dataclass
class InstalledApplication:
    """Book-keeping for one installed application (Helm release)."""

    name: str
    namespace: str
    objects: list[KubernetesObject] = field(default_factory=list)
    pod_names: list[str] = field(default_factory=list)


class Cluster:
    """An in-process simulated Kubernetes cluster."""

    def __init__(
        self,
        name: str = "minikube",
        worker_count: int = 3,
        behaviors: BehaviorRegistry | None = None,
        seed: int = 2025,
        compiled_policies: bool = True,
    ) -> None:
        self.name = name
        self._seed = seed
        self.ipam = ClusterIPAM()
        self.api = APIServer()
        self.behaviors = behaviors or BehaviorRegistry()
        self.runtime = ContainerRuntime(self.behaviors, seed=seed)
        self.dns = ClusterDNS()
        #: ``compiled_policies=False`` pins every evaluation to the naive
        #: uncompiled scan -- the reference semantics used by differential
        #: tests and the before/after benchmarks.
        self.compiled_policies = compiled_policies
        self.enforcer = NetworkPolicyEnforcer(use_index=compiled_policies)
        self.network = ClusterNetwork(enforcer=self.enforcer)
        self.endpoint_controller = EndpointController()
        self.nodes: list[Node] = []
        for node in build_node_set(name, worker_count):
            self._add_node(node)
        self.scheduler = Scheduler(self.nodes)
        self._running: dict[tuple[str, str], RunningPod] = {}
        self._applications: dict[str, InstalledApplication] = {}
        #: Restart generation, folded into :attr:`policy_epoch` so caches
        #: derived from runtime state invalidate on pod restarts too.
        self._restart_generation = 0
        self._policy_index: PolicyIndex | None = None
        #: Service bindings computed by the last reconcile, plus the epoch
        #: they were computed at (``None`` = never reconciled).
        self._bindings: list[ServiceBinding] = []
        self._bindings_epoch: int | None = None
        #: Compiled endpoint universes for the bitset reachability
        #: engine, keyed ``(policy_epoch, include_loopback)``; shared across
        #: every matrix built at one epoch, dropped when it grows stale.
        self._universe_cache: dict[tuple[int, bool], object] = {}
        #: Number of :meth:`reset` cycles this skeleton has been through.
        self.session_epoch = 0
        self._ensure_namespace("default")
        self._ensure_namespace("kube-system")

    # Session recycling ------------------------------------------------------
    def reset(self, behaviors: BehaviorRegistry | None = None, seed: int | None = None) -> None:
        """Recycle the cluster skeleton: back to as-constructed state.

        The *reset-epoch contract*: after ``reset(behaviors, seed)`` the
        cluster behaves exactly like ``Cluster(name, worker_count, behaviors,
        seed, compiled_policies)`` freshly constructed -- same node names and
        IPs, same deterministic IPAM and ephemeral-port sequences, empty API
        store, no applications, no admission controllers -- *except* that
        :attr:`policy_epoch` keeps moving strictly forward (the store
        generation is carried over and bumped, never rewound), so any cache
        keyed on the epoch (the compiled policy index, the service-binding
        reconcile, external consumers) invalidates without manual plumbing.

        What is recycled rather than rebuilt: the :class:`Node` objects (with
        their host-process tables), the scheduler wired to them, and the
        namespace defaults.  Everything derived from installed state is
        dropped.  :class:`AnalysisSession` calls this between charts instead
        of constructing a throw-away cluster per chart.
        """
        if behaviors is not None:
            self.behaviors = behaviors
        if seed is not None:
            self._seed = seed
        self.session_epoch += 1
        # Every component clears in place (identities survive, so external
        # references like ``network.enforcer`` stay wired); the store
        # generation moves forward by at least one even on a mutation-free
        # cycle, so the epoch never stands still across a reset.
        self.api.reset()
        self.ipam.reset()
        self.runtime.reset(self.behaviors, seed=self._seed)
        self.dns.reset()
        self.enforcer.reset()
        for node in self.nodes:
            node.pod_names.clear()
            node.ip = self.ipam.nodes.allocate(node.name)
        self._running.clear()
        self._applications.clear()
        self._policy_index = None
        self._bindings = []
        self._bindings_epoch = None
        self._universe_cache.clear()
        self._ensure_namespace("default")
        self._ensure_namespace("kube-system")

    # Node management --------------------------------------------------------
    def _add_node(self, node: Node) -> None:
        node.ip = self.ipam.nodes.allocate(node.name)
        self.nodes.append(node)

    def worker_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.schedulable]

    # Namespace helpers --------------------------------------------------------
    def _ensure_namespace(self, namespace: str, labels: Mapping[str, str] | None = None) -> None:
        exists = self.api.store.exists("Namespace", namespace, "")
        update = namespace_update(
            namespace, labels, self.enforcer.namespace_labels(namespace) if exists else None
        )
        if update is None:
            return
        effective, apply = update
        if apply:
            # A label update must also reach the store: namespaceSelector
            # semantics just changed, and the write moves
            # :attr:`policy_epoch` like every other policy-relevant write.
            self.api.apply(make_namespace(namespace, labels))
        self.enforcer.set_namespace_labels(namespace, effective)

    # Admission ------------------------------------------------------------------
    def register_admission_controller(self, controller: AdmissionController) -> None:
        self.api.register_admission_controller(controller)

    # Application lifecycle ---------------------------------------------------------
    def install(
        self,
        source: RenderedChart | Iterable[KubernetesObject],
        app_name: str = "",
        namespace: str = "default",
    ) -> InstalledApplication:
        """Install a rendered chart (or plain objects) as one application."""
        if isinstance(source, RenderedChart):
            objects = list(source.objects)
            app_name = app_name or source.release.name
            namespace = source.release.namespace or namespace
        else:
            objects = list(source)
            if not app_name:
                raise ClusterError("app_name is required when installing plain objects")
        if app_name in self._applications:
            raise ClusterError(f"application {app_name!r} is already installed")
        self._ensure_namespace(namespace)
        application = InstalledApplication(name=app_name, namespace=namespace)
        for obj in objects:
            if obj.kind == "Namespace":
                self._ensure_namespace(obj.name, obj.labels.to_dict())
                continue
            if obj.NAMESPACED and not obj.metadata.namespace:
                obj.metadata.namespace = namespace
            self.api.apply(obj)
            application.objects.append(obj)
        self._applications[app_name] = application
        self._start_application_pods(application)
        self.reconcile()
        return application

    def uninstall(self, app_name: str) -> None:
        application = self._applications.pop(app_name, None)
        if application is None:
            raise ClusterError(f"application {app_name!r} is not installed")
        for pod_name in application.pod_names:
            running = self._running.pop((application.namespace, pod_name), None)
            if running is not None:
                self.scheduler.unschedule(pod_name)
                self.ipam.pods.release(f"{application.namespace}/{pod_name}")
        for obj in application.objects:
            try:
                self.api.delete(obj.kind, obj.name, obj.namespace)
            except ClusterError:
                continue
        self.reconcile()

    def applications(self) -> list[InstalledApplication]:
        return list(self._applications.values())

    # Pod lifecycle -------------------------------------------------------------------
    def _start_application_pods(self, application: InstalledApplication) -> None:
        for obj in application.objects:
            if isinstance(obj, Workload) and not isinstance(obj, CronJob):
                for pod in self._expand_workload(obj):
                    self._start_pod(pod, application, owner=obj.qualified_name())
            elif isinstance(obj, Pod):
                self._start_pod(obj, application, owner=obj.qualified_name())

    def _expand_workload(self, workload: Workload) -> list[Pod]:
        return expand_workload_pods(workload, len(self.worker_nodes()))

    def _start_pod(self, pod: Pod, application: InstalledApplication, owner: str = "") -> RunningPod:
        node = self.scheduler.schedule(pod)
        if pod.spec.host_network:
            ip = node.ip
        else:
            ip = self.ipam.pods.allocate(f"{pod.namespace}/{pod.name}")
        running = self.runtime.start_pod(pod, ip, node, app=application.name, owner=owner)
        self._running[(pod.namespace, pod.name)] = running
        application.pod_names.append(pod.name)
        return running

    def restart_application(self, app_name: str) -> None:
        """Restart every pod of an application (ephemeral ports change)."""
        application = self._applications.get(app_name)
        if application is None:
            raise ClusterError(f"application {app_name!r} is not installed")
        for pod_name in application.pod_names:
            running = self._running.get((application.namespace, pod_name))
            if running is not None:
                self.runtime.restart_pod(running)
        self._restart_generation += 1
        self.reconcile()

    def restart_all(self) -> None:
        for running in self._running.values():
            self.runtime.restart_pod(running)
        self._restart_generation += 1
        self.reconcile()

    # Controllers -----------------------------------------------------------------------
    def reconcile(self) -> None:
        """Recompute service bindings and DNS records (unconditionally)."""
        bindings = self.endpoint_controller.bind(self.services(), self.running_pods())
        service_ips = {}
        for binding in bindings:
            service = binding.service
            if not service.is_headless:
                owner = f"{service.namespace}/{service.name}"
                service_ips[(service.namespace, service.name)] = self.ipam.services.allocate(owner)
        self.dns.program(bindings, service_ips)
        self._bindings = bindings
        self._bindings_epoch = self.policy_epoch

    # Queries ------------------------------------------------------------------------------
    def running_pods(self, app_name: str | None = None, namespace: str | None = None) -> list[RunningPod]:
        return [
            running
            for running in self._running.values()
            if (app_name is None or running.app == app_name)
            and (namespace is None or running.namespace == namespace)
        ]

    def running_pod(self, name: str, namespace: str = "default") -> RunningPod:
        running = self._running.get((namespace, name))
        if running is None:
            raise PodNotFound(name, namespace)
        return running

    def services(self, namespace: str | None = None) -> list[Service]:
        return [
            obj
            for obj in self.api.store.list("Service", namespace)
            if isinstance(obj, Service)
        ]

    def network_policies(self, namespace: str | None = None) -> list[NetworkPolicy]:
        return [
            obj
            for obj in self.api.store.list("NetworkPolicy", namespace)
            if isinstance(obj, NetworkPolicy)
        ]

    def service_bindings(self) -> list[ServiceBinding]:
        """The current service-to-pod bindings (epoch-cached).

        Bindings derive from the API store (services, selectors) and the set
        of running pods, both of which move :attr:`policy_epoch` on every
        mutation (install, uninstall, restart, direct ``api.apply``/
        ``api.delete``).  The endpoint controller therefore only re-reconciles
        when the epoch moved since the last reconcile -- the same
        store-generation pattern as :meth:`policy_index`.
        """
        if self._bindings_epoch != self.policy_epoch:
            self.reconcile()
        return list(self._bindings)

    def binding_for(self, service_name: str, namespace: str = "default") -> ServiceBinding:
        for binding in self.service_bindings():
            if binding.service.name == service_name and binding.service.namespace == namespace:
                return binding
        raise ClusterError(f"service {namespace}/{service_name} not found")

    def host_port_baseline(self) -> set[int]:
        """Ports open on the nodes before any application is installed."""
        ports: set[int] = set()
        for node in self.nodes:
            ports.update(node.host_port_numbers())
        return ports

    # Connectivity ------------------------------------------------------------------------
    @property
    def policy_epoch(self) -> int:
        """Monotonic epoch of the policy-relevant cluster state.

        Moves on every API-server mutation (install, uninstall, direct
        ``api.apply``/``api.delete``) and on pod restarts, so any cache keyed
        on it -- most importantly the compiled :class:`PolicyIndex` -- is
        invalidated without manual plumbing.
        """
        return self.api.store.generation + self._restart_generation

    def policy_index(self) -> PolicyIndex:
        """The compiled policy index for the current epoch (cached)."""
        epoch = self.policy_epoch
        index = self._policy_index
        if index is None or index.epoch != epoch:
            index = PolicyIndex(self.network_policies(), epoch=epoch)
            self._policy_index = index
        return index

    def policies_view(self) -> PolicyIndex | list[NetworkPolicy]:
        """The policy set in the shape the connectivity engine should use.

        The compiled, epoch-cached index normally; the raw list when the
        cluster was built with ``compiled_policies=False`` (which pins every
        downstream evaluation to the naive reference path).
        """
        if self.compiled_policies:
            return self.policy_index()
        return self.network_policies()

    def reachability_matrix(self, include_loopback: bool = False) -> ReachabilityMatrix:
        """A batched all-pairs reachability engine over the current state.

        Surfaces run on the bitset engine, sharing one compiled
        :class:`~repro.cluster.network.EndpointUniverse` per
        ``(policy_epoch, include_loopback)`` across every matrix of the
        epoch; ``compiled_policies=False`` pins them to the per-attempt
        reference scan.
        """
        stale = [key for key in self._universe_cache if key[0] != self.policy_epoch]
        for key in stale:
            del self._universe_cache[key]
        return self.network.reachability_matrix(
            self.policies_view(),
            self.running_pods(),
            self.service_bindings(),
            include_loopback=include_loopback,
            universe_cache=self._universe_cache if self.compiled_policies else None,
        )

    def connect(
        self,
        source: RunningPod,
        destination: RunningPod | str,
        port: int,
        protocol: str = "TCP",
    ) -> ConnectionAttempt:
        """Simulate a connection from a pod to another pod or a service name."""
        policies = self.policies_view()
        if isinstance(destination, RunningPod):
            return self.network.connect_pod_to_pod(policies, source, destination, port, protocol)
        binding = self.binding_for(destination.split(".")[0], source.namespace
                                   if "." not in destination else destination.split(".")[1])
        return self.network.connect_pod_to_service(policies, source, binding, port, protocol)

    def reachable_from(self, source: RunningPod, include_loopback: bool = False) -> list[ReachableEndpoint]:
        """The lateral-movement surface visible from ``source``."""
        return self.network.reachable_endpoints(
            self.policies_view(),
            source,
            self.running_pods(),
            self.service_bindings(),
            include_loopback=include_loopback,
        )
