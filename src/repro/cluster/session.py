"""Install-free analysis sessions over pooled cluster substrates.

The evaluation pipeline analyzes hundreds of charts, and the seed code built
a throw-away :class:`~repro.cluster.cluster.Cluster` per chart: nodes, IPAM
pools, DNS, scheduler and API server were reconstructed ~300 times per sweep,
and every runtime observation paid a full install (validation, store writes,
endpoint reconciles) it never looked at again.  This module removes both
costs without changing a single observable result:

* :class:`AnalysisSession` **pools cluster skeletons**.  A cluster is built
  once and recycled between charts through ``Cluster.reset()`` -- the
  *reset-epoch contract*: after ``reset(behaviors, seed)`` the cluster is
  indistinguishable from a freshly constructed one (same node names,
  deterministic IPAM and ephemeral-port sequences, empty store), except that
  ``policy_epoch`` keeps moving strictly forward so every epoch-keyed cache
  (policy index, service bindings) invalidates for free.

* :class:`ObservationSubstrate` is the **fast observation path**
  (``observe_mode="fast"``): it derives the netstat-style double snapshot
  directly from the rendered objects and the registered workload behaviours
  -- the same workload expansion, scheduler placement, container runtime and
  restart ordering as a real install, minus the API server, IPAM, DNS and
  endpoint machinery that contributes nothing to a
  :class:`~repro.probe.snapshot.PodSnapshot`.  ``observe_mode="full"`` keeps
  the install-and-scan path as the reference implementation.

* :meth:`AnalysisSession.deploy` starts a rendered chart and the attacker pod
  on the same substrate and hands back a :class:`SubstrateDeployment`: the
  running pods, service bindings, compiled policy index, namespace labels
  and host-port baseline that ``Cluster.install`` plus
  ``ReachabilityProbe.ensure_attacker`` would leave -- the query surface the
  reachability probes (Figure 4b) read, without a control plane.  Its
  reference is that install on a fresh ``Cluster(compiled_policies=False)``.

With the structured render pipeline (``render_chart``'s dict-native
default) feeding it, the fast path closes the loop: from chart to snapshot
no YAML text is dumped or parsed anywhere -- the substrate consumes the
typed objects the renderer assembled straight from native dicts.

* :class:`ObservationMemo` adds the **content-keyed observation memo**:
  fast-path observations are a pure function of the render fingerprint, the
  behaviour registry fingerprint and the session identity (name, worker
  count, seed, snapshot mode), so repeated observations of identical
  content within one process -- a ``watch`` session's rounds, a sweep's
  re-rendered override variants -- are served from an in-process memo.
  Nothing is persisted: across processes, the result store keeps whole
  chart results instead.

Equivalence -- pooled == fresh and fast == full, for findings, snapshots and
reachability surfaces alike -- is proven over the whole catalogue and over
Hypothesis-generated app specs by the differential conformance suite in
``tests/property/test_session_equivalence.py``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .. import faults
from ..helm import RenderedChart
from ..k8s import (
    CronJob,
    DaemonSet,
    NetworkPolicy,
    ObjectMeta,
    Pod,
    Service,
    Workload,
    make_namespace,
)
from ..memo import remember
from ..probe.reachability import ATTACKER_APP, ATTACKER_POD_NAME, make_attacker_pod
from ..probe.scanner import RuntimeObservation, RuntimeScanner
from ..probe.snapshot import ClusterSnapshot, PodSnapshot
from .behavior import BehaviorRegistry
from .cluster import Cluster, _sanitize, build_node_set, namespace_update
from .cni import NetworkPolicyEnforcer
from .endpoints import EndpointController, ServiceBinding
from .errors import ClusterError, PodNotFound
from .network import ClusterNetwork
from .node import Node
from .policy_index import PolicyIndex
from .runtime import ContainerRuntime, RunningPod
from .scheduler import Scheduler

#: The attacker pod every deployment starts, shared read-only (sealed) the
#: way workload replicas share their template's parts.
_ATTACKER_POD = make_attacker_pod("default").seal()

#: Observation modes: ``"fast"`` derives snapshots install-free from rendered
#: objects + behaviours; ``"full"`` installs into a (pooled) cluster and runs
#: the :class:`~repro.probe.scanner.RuntimeScanner` -- the reference path.
OBSERVE_FAST = "fast"
OBSERVE_FULL = "full"
OBSERVE_MODES = (OBSERVE_FAST, OBSERVE_FULL)


class ObservationSubstrate:
    """Nodes, scheduler and container runtime without a control plane.

    Mirrors exactly the parts of ``Cluster.install`` + ``RuntimeScanner``
    that a runtime observation can see: object validation and namespace
    defaulting, workload expansion (a shared-structure mirror of
    :func:`~repro.cluster.cluster.expand_workload_pods`, see
    :meth:`_expand_workload`), least-loaded scheduling onto the shared node
    set (:func:`~repro.cluster.cluster.build_node_set`), socket derivation
    through the same :class:`ContainerRuntime` (identical ephemeral-port
    RNG sequence), and the restart-between-snapshots ordering of the double
    snapshot.  The API server, admission chain, IPAM pools, DNS and
    endpoint controller are skipped -- none of their state reaches a
    snapshot.

    Not thread-safe: one substrate serves one observation at a time (the
    catalogue fan-out is process-based and each worker owns its session).
    """

    def __init__(
        self,
        name: str = "analysis",
        worker_count: int = 3,
        seed: int = 2025,
        behaviors: BehaviorRegistry | None = None,
    ) -> None:
        self.name = name
        self.worker_count = worker_count
        self._seed = seed
        self.behaviors = behaviors or BehaviorRegistry()
        self.nodes: list[Node] = build_node_set(name, worker_count)
        self.scheduler = Scheduler(self.nodes)
        self.runtime = ContainerRuntime(self.behaviors, seed=seed)
        self._pod_counter = 0
        self._host_ports: frozenset[int] | None = None
        #: The namespaces a fresh cluster starts with, as ``Cluster.__init__``
        #: ensures them; read-only, every deployment starts from a copy.
        self._initial_namespaces: dict[str, dict[str, str]] = {}
        for namespace in ("default", "kube-system"):
            _ensure_namespace(self._initial_namespaces, namespace)

    def reset(self, behaviors: BehaviorRegistry | None = None, seed: int | None = None) -> None:
        """Recycle the substrate: nodes stay, runtime state is re-seeded."""
        if behaviors is not None:
            self.behaviors = behaviors
        if seed is not None:
            self._seed = seed
        for node in self.nodes:
            node.pod_names.clear()
        self.runtime.reset(self.behaviors, seed=self._seed)
        self._pod_counter = 0

    def worker_nodes(self) -> list[Node]:
        """The schedulable nodes of the shared node set."""
        return [node for node in self.nodes if node.schedulable]

    def host_port_baseline(self) -> set[int]:
        """Ports open on the nodes themselves (computed once; copied out)."""
        if self._host_ports is None:
            ports: set[int] = set()
            for node in self.nodes:
                ports.update(node.host_port_numbers())
            self._host_ports = frozenset(ports)
        return set(self._host_ports)

    # Observation -------------------------------------------------------------
    def observe(
        self, rendered: RenderedChart, double_snapshot: bool = True
    ) -> RuntimeObservation:
        """The install-free double snapshot of one rendered chart.

        Byte-compatible with installing ``rendered`` into a fresh cluster and
        running ``RuntimeScanner.observe``: objects are validated (once per
        sealed interned object -- see ``validate_cached``) and
        namespace-defaulted in apply order, pods start in workload order, and
        the restart between snapshots walks the started pod names in the same
        order so dynamic ports replay the same RNG draws.  A ``Namespace``
        object goes through the rule install applies to it
        (:func:`_ensure_namespace`, as in :meth:`deploy`), so it raises
        where install raises; its labels reach no snapshot.
        """
        app = rendered.release.name
        namespace = rendered.release.namespace or "default"
        objects = []
        namespace_labels: dict[str, dict[str, str]] | None = None
        for obj in rendered.objects:
            if obj.kind == "Namespace":
                if namespace_labels is None:
                    namespace_labels = dict(self._initial_namespaces)
                    _ensure_namespace(namespace_labels, namespace)
                _ensure_namespace(namespace_labels, obj.name, obj.labels.to_dict())
                continue
            if obj.NAMESPACED and not obj.metadata.namespace:
                # Only reachable for hand-built objects: parsed manifests are
                # namespace-defaulted at construction (and interned objects,
                # which are sealed, therefore never take this branch).
                obj.metadata.namespace = namespace
            # Sealed (content-interned) objects validate once ever: warm
            # render-cache hits skip the whole validation walk.
            obj.validate_cached()
            objects.append(obj)
        running: dict[tuple[str, str], RunningPod] = {}
        pod_names: list[str] = []
        self._start_pods(objects, app, running, pod_names)
        host_ports = self.host_port_baseline()
        pods = list(running.values())
        first = ClusterSnapshot.from_pods(pods, host_ports=host_ports, sequence=0)
        if double_snapshot:
            second = ClusterSnapshot(
                pods=self._second_snapshot_pods(running, pod_names, namespace, first),
                host_ports=set(host_ports),
                sequence=1,
            )
        else:
            second = first
        return RuntimeObservation(app=app, first=first, second=second, host_ports=host_ports)

    def deploy(self, rendered: RenderedChart) -> "SubstrateDeployment":
        """Start ``rendered`` and then the attacker pod, as install would.

        Mirrors ``Cluster.install(rendered)`` followed by
        ``ReachabilityProbe.ensure_attacker()`` on a fresh cluster, up to
        the state a reachability probe reads: namespaces get the labels
        ``Cluster._ensure_namespace`` gives them, non-``Namespace`` objects
        are namespace-defaulted and validated in object order (a
        ``Namespace`` object through ``make_namespace`` and ``validate``, as
        its apply does), services and policies are stored by object key
        (a later duplicate replaces an earlier one), and pods start in
        object order, duplicates included.  The attacker starts last under
        app :data:`~repro.probe.reachability.ATTACKER_APP`, unless a pod of
        the chart already holds its name in ``default`` (``ensure_attacker``
        then finds that pod).  Raises every error that install raises, at
        the same object.  Valid until this substrate's next reset.
        """
        app = rendered.release.name
        namespace = rendered.release.namespace or "default"
        namespace_labels = dict(self._initial_namespaces)
        _ensure_namespace(namespace_labels, namespace)
        objects = []
        services: dict[tuple[str, str, str], Service] = {}
        policies: dict[tuple[str, str, str], NetworkPolicy] = {}
        for obj in rendered.objects:
            if obj.kind == "Namespace":
                _ensure_namespace(namespace_labels, obj.name, obj.labels.to_dict())
                continue
            if obj.NAMESPACED and not obj.metadata.namespace:
                obj.metadata.namespace = namespace
            obj.validate_cached()
            if isinstance(obj, Service):
                services[obj.key] = obj
            elif isinstance(obj, NetworkPolicy):
                policies[obj.key] = obj
            objects.append(obj)
        running: dict[tuple[str, str], RunningPod] = {}
        pod_names: list[str] = []
        self._start_pods(objects, app, running, pod_names)
        if ("default", ATTACKER_POD_NAME) not in running:
            if app == ATTACKER_APP:
                raise ClusterError(f"application {ATTACKER_APP!r} is already installed")
            self._start_pod(
                _ATTACKER_POD, ATTACKER_APP, _ATTACKER_POD.qualified_name(), running, pod_names
            )
        return SubstrateDeployment(
            running,
            [services[key] for key in sorted(services)],
            [policies[key] for key in sorted(policies)],
            namespace_labels,
            self.host_port_baseline(),
        )

    def _second_snapshot_pods(
        self,
        running: dict[tuple[str, str], RunningPod],
        pod_names: list[str],
        namespace: str,
        first: ClusterSnapshot,
    ) -> list:
        """The post-restart pod snapshots, re-deriving only what can change.

        A restart re-opens exactly the same sockets except for dynamic
        (ephemeral) ones, and restarting a pod that drew no ephemeral port
        draws nothing from the shared RNG -- so such pods are skipped
        entirely and their first :class:`~repro.probe.snapshot.PodSnapshot`
        is shared into the second snapshot (snapshots are read-only by
        contract).  The skip keys on ``ContainerRuntime.drew_ephemeral``
        (the recorded draws), not on surviving sockets: a dynamic socket
        deduplicated away by a same-port static socket still advanced the
        RNG and still must restart.  Pods that drew restart in the same
        start order (and with the same duplicate-name lookup) as
        ``Cluster.restart_application``, replaying the reference RNG
        sequence exactly.
        """
        restarted: set[int] = set()
        for name in pod_names:
            pod = running.get((namespace, name))
            if pod is not None and self.runtime.drew_ephemeral(pod):
                self.runtime.restart_pod(pod)
                restarted.add(id(pod))
        return [
            PodSnapshot.from_running_pod(pod) if id(pod) in restarted else snapshot
            for pod, snapshot in zip(running.values(), first.pods)
        ]

    def _start_pods(
        self,
        objects: list,
        app: str,
        running: dict[tuple[str, str], RunningPod],
        pod_names: list[str],
    ) -> None:
        """Start the pods of ``objects`` in object order, as install does."""
        worker_count = len(self.worker_nodes())
        for obj in objects:
            if isinstance(obj, Workload) and not isinstance(obj, CronJob):
                for pod in self._expand_workload(obj, worker_count):
                    self._start_pod(pod, app, obj.qualified_name(), running, pod_names)
            elif isinstance(obj, Pod):
                self._start_pod(obj, app, obj.qualified_name(), running, pod_names)

    @staticmethod
    def _expand_workload(workload: Workload, worker_count: int) -> list[Pod]:
        """Expand a workload into pods, sharing the immutable parts.

        Mirrors :func:`~repro.cluster.cluster.expand_workload_pods` --
        same replica counts, pod names and namespaces -- but replicas share
        the template's spec, labels and annotations instead of paying a
        serialize/deserialize deep copy each.  Safe here because the fast
        path never hands pods to a mutable store: the runtime and the
        snapshots only ever read them.  Equivalence with the copying
        expansion is part of the differential conformance suite.
        """
        replicas = worker_count if isinstance(workload, DaemonSet) else workload.replica_count()
        template = workload.pod_template()
        labels = template.metadata.labels
        annotations = template.metadata.annotations
        namespace = workload.namespace
        return [
            Pod(
                metadata=ObjectMeta(
                    name=_sanitize(f"{workload.name}-{index}"),
                    namespace=namespace,
                    labels=labels,
                    annotations=annotations,
                ),
                spec=template.spec,
            )
            for index in range(replicas)
        ]

    def _start_pod(
        self,
        pod: Pod,
        app: str,
        owner: str,
        running: dict[tuple[str, str], RunningPod],
        pod_names: list[str],
    ) -> None:
        node = self.scheduler.schedule(pod)
        if pod.spec.host_network:
            ip = node.ip
        else:
            # Snapshots never observe pod IPs; a cheap deterministic stand-in
            # replaces the IPAM pool walk.
            self._pod_counter += 1
            serial = self._pod_counter + 1
            ip = f"10.244.{(serial >> 8) & 0xFF}.{serial & 0xFF}"
        started = self.runtime.start_pod(pod, ip, node, app=app, owner=owner)
        running[(pod.namespace, pod.name)] = started
        pod_names.append(pod.name)


def _ensure_namespace(
    namespace_labels: dict[str, dict[str, str]],
    namespace: str,
    labels: dict[str, str] | None = None,
) -> None:
    """``Cluster._ensure_namespace`` on a plain label table.

    The rule is :func:`~repro.cluster.cluster.namespace_update`'s; where
    install applies the ``Namespace``, only its validation can fail (a
    fresh cluster has no admission controller), so only that runs here.
    """
    update = namespace_update(namespace, labels, namespace_labels.get(namespace))
    if update is not None:
        effective, apply = update
        if apply:
            make_namespace(namespace, labels).validate()
        namespace_labels[namespace] = effective


class SubstrateDeployment:
    """A chart and the attacker pod, started on an :class:`ObservationSubstrate`.

    Answers the queries a reachability probe puts to a ``Cluster`` after
    ``install`` + ``ReachabilityProbe.ensure_attacker``: running pods,
    service bindings (``EndpointController.bind`` over every running pod,
    the attacker included), the compiled :class:`PolicyIndex` over the
    key-sorted policies, a :class:`ClusterNetwork` whose enforcer holds each
    namespace's labels, and the host-port baseline.  What it leaves out
    reaches no decision: pod IPs are the substrate's stand-ins (an
    ``ipBlock`` peer never matches a pod), and there is no IPAM, DNS, API
    store or audit log.  Built by :meth:`AnalysisSession.deploy`; valid
    until the substrate's next reset.
    """

    def __init__(
        self,
        running: dict[tuple[str, str], RunningPod],
        services: list[Service],
        policies: list[NetworkPolicy],
        namespace_labels: dict[str, dict[str, str]],
        host_ports: set[int],
    ) -> None:
        self._running = running
        self._bindings = EndpointController().bind(services, list(running.values()))
        self._policy_index = PolicyIndex(policies)
        self._host_ports = host_ports
        self.enforcer = NetworkPolicyEnforcer(namespace_labels)
        self.network = ClusterNetwork(enforcer=self.enforcer)

    def running_pods(self, app_name: str) -> list[RunningPod]:
        """The running pods of one app (the chart's or the attacker's), in start order."""
        return [running for running in self._running.values() if running.app == app_name]

    def running_pod(self, name: str, namespace: str) -> RunningPod:
        """The running pod ``namespace/name``; raises :class:`PodNotFound`."""
        running = self._running.get((namespace, name))
        if running is None:
            raise PodNotFound(name, namespace)
        return running

    def service_bindings(self) -> list[ServiceBinding]:
        """Every service, key-sorted, with the running pods it selects."""
        return list(self._bindings)

    def policies_view(self) -> PolicyIndex:
        """The compiled index over the deployment's policies."""
        return self._policy_index

    def host_port_baseline(self) -> set[int]:
        """Ports open on the nodes themselves."""
        return set(self._host_ports)


@dataclass
class SessionStats:
    """Counters exposed for tests and the benchmark harness."""

    clusters_built: int = 0
    resets: int = 0
    leases: int = 0
    fast_observations: int = 0
    full_observations: int = 0
    #: Fast observations served from the content-keyed memo (a subset of
    #: ``fast_observations`` -- a memo hit still counts as an observation).
    memo_hits: int = 0


_OBSERVATION_MEMO_MAXSIZE = 2048


def _private_copy(observation: RuntimeObservation) -> RuntimeObservation:
    """A fresh top-level observation: private ``host_ports``, shared snapshots."""
    return RuntimeObservation(
        app=observation.app,
        first=observation.first,
        second=observation.second,
        host_ports=set(observation.host_ports),
    )


class ObservationMemo:
    """Content-keyed memo of fast-path runtime observations.

    Keys are tuples of the full observation identity (render fingerprint,
    behaviour registry fingerprint, session name, worker count, seed,
    snapshot mode); values are private
    :class:`~repro.probe.scanner.RuntimeObservation` copies (fresh
    top-level object, shared read-only snapshots -- the same contract as
    the render cache's shared entries).  Bounded like every memo
    (:mod:`repro.memo`).  The memo lives and dies with its process.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, RuntimeObservation] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> RuntimeObservation | None:
        """The memoized observation for ``key``, or ``None`` on a miss.

        Hits return a fresh top-level :class:`RuntimeObservation` (private
        ``host_ports`` set, shared snapshots) so caller-side attribute
        rebinding cannot poison the memo.
        """
        observation = self._entries.get(key)
        if observation is None:
            self.misses += 1
            return None
        self.hits += 1
        return _private_copy(observation)

    def record(self, key: tuple, observation: RuntimeObservation) -> None:
        """Memoize ``observation`` under ``key``.

        A private copy is stored -- never the caller's object -- so the
        caller keeps full ownership of what it was handed.
        """
        remember(self._entries, key, _private_copy(observation), _OBSERVATION_MEMO_MAXSIZE)

    def stats(self) -> dict[str, int]:
        """Hit/miss/entry counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


class AnalysisSession:
    """Pooled cluster substrates plus the fast/full observation switch.

    One session serves one sequential consumer (an analyzer instance, a
    sweep worker process).  ``lease()`` hands out a clean cluster -- recycled
    through ``Cluster.reset()`` when the pool has one, freshly built
    otherwise -- and ``observe()`` produces a
    :class:`~repro.probe.scanner.RuntimeObservation` through the configured
    ``observe_mode``.
    """

    def __init__(
        self,
        name: str = "analysis",
        worker_count: int = 3,
        seed: int = 2025,
        observe_mode: str = OBSERVE_FAST,
        compiled_policies: bool = True,
        pooled: bool = True,
    ) -> None:
        if observe_mode not in OBSERVE_MODES:
            raise ValueError(f"unknown observe_mode {observe_mode!r}; expected one of {OBSERVE_MODES}")
        self.name = name
        self.worker_count = worker_count
        self.seed = seed
        self.compiled_policies = compiled_policies
        self.pooled = pooled
        self.observe_mode = observe_mode
        self._free: list[Cluster] = []
        self._lock = threading.Lock()
        self._substrate: ObservationSubstrate | None = None
        #: Serializes fast observations: the substrate is a single recycled
        #: instance, so a caller that shares one session (or analyzer)
        #: across threads must not interleave two observations on it (the
        #: full path is already safe -- every observation leases its own
        #: cluster).
        self._observe_lock = threading.Lock()
        self._memo = ObservationMemo()
        self.stats = SessionStats()

    # Cluster pool ------------------------------------------------------------
    def acquire(self, behaviors: BehaviorRegistry | None = None) -> Cluster:
        """A clean cluster carrying ``behaviors`` (reset happens here).

        Released clusters are recycled lazily on the next acquire, so a
        consumer that dies mid-lease costs nothing extra.
        """
        behaviors = behaviors or BehaviorRegistry()
        self.stats.leases += 1
        cluster: Cluster | None = None
        if self.pooled:
            with self._lock:
                cluster = self._free.pop() if self._free else None
        if cluster is None:
            self.stats.clusters_built += 1
            return Cluster(
                name=self.name,
                worker_count=self.worker_count,
                behaviors=behaviors,
                seed=self.seed,
                compiled_policies=self.compiled_policies,
            )
        cluster.reset(behaviors=behaviors, seed=self.seed)
        self.stats.resets += 1
        return cluster

    def release(self, cluster: Cluster) -> None:
        """Return a leased cluster to the pool (no-op when pooling is off)."""
        if not self.pooled:
            return
        with self._lock:
            self._free.append(cluster)

    @contextmanager
    def lease(self, behaviors: BehaviorRegistry | None = None) -> Iterator[Cluster]:
        """Context-managed acquire/release of one clean cluster."""
        cluster = self.acquire(behaviors)
        try:
            yield cluster
        finally:
            self.release(cluster)

    # Observation -------------------------------------------------------------
    def observe(
        self,
        rendered: RenderedChart,
        behaviors: BehaviorRegistry | None = None,
        double_snapshot: bool = True,
    ) -> RuntimeObservation:
        """The runtime observation of one rendered chart.

        ``"fast"`` mode goes through the install-free
        :class:`ObservationSubstrate`, consulting the content-keyed
        :class:`ObservationMemo` first (renders carrying a render
        fingerprint only -- uncached renders always hit the substrate);
        ``"full"`` mode leases a cluster, installs the chart and runs the
        reference :class:`~repro.probe.scanner.RuntimeScanner`, bypassing
        the memo so the reference path stays memo-free.
        """
        faults.fault_point(faults.OBSERVE)
        if self.observe_mode == OBSERVE_FAST:
            behaviors = behaviors or BehaviorRegistry()
            key = self._observation_key(rendered, behaviors, double_snapshot)
            if key is not None:
                memoized = self._memo.lookup(key)
                if memoized is not None:
                    self.stats.fast_observations += 1
                    self.stats.memo_hits += 1
                    return memoized
            with self._observe_lock:
                substrate = self._clean_substrate(behaviors)
                self.stats.fast_observations += 1
                observation = substrate.observe(rendered, double_snapshot=double_snapshot)
            if key is not None:
                self._memo.record(key, observation)
            return observation
        self.stats.full_observations += 1
        with self.lease(behaviors) as cluster:
            cluster.install(rendered)
            scanner = RuntimeScanner(cluster)
            return scanner.observe(
                rendered.release.name, restart_between_snapshots=double_snapshot
            )

    @contextmanager
    def deploy(
        self, rendered: RenderedChart, behaviors: BehaviorRegistry
    ) -> Iterator[SubstrateDeployment]:
        """Context-managed install-free deployment of ``rendered`` plus the attacker.

        Resets the session's one substrate (the fast path's) and yields
        :meth:`ObservationSubstrate.deploy`'s result.  The substrate is held
        until the block exits, so no fast observation or other deployment
        on this session interleaves; the deployment is not valid after it.
        A deployment is the fast path with the compiled policy index: a
        session set up as the reference (``observe_mode="full"`` or
        ``compiled_policies=False``) raises ``ValueError`` -- its reference
        is an install into a ``Cluster``.  ``pooled`` concerns leased
        clusters only; the substrate is recycled, as for fast observations.
        """
        if self.observe_mode != OBSERVE_FAST or not self.compiled_policies:
            raise ValueError(
                "deploy runs install-free with compiled policies; this session is set to "
                f"observe_mode={self.observe_mode!r}, "
                f"compiled_policies={self.compiled_policies}"
            )
        with self._observe_lock:
            yield self._clean_substrate(behaviors).deploy(rendered)

    def _clean_substrate(self, behaviors: BehaviorRegistry) -> ObservationSubstrate:
        """The session's substrate, built on first use and reset after."""
        substrate = self._substrate
        if substrate is None:
            substrate = ObservationSubstrate(
                name=self.name,
                worker_count=self.worker_count,
                seed=self.seed,
                behaviors=behaviors,
            )
            self._substrate = substrate
        else:
            substrate.reset(behaviors=behaviors, seed=self.seed)
        return substrate

    def memo_stats(self) -> dict[str, int]:
        """Counter snapshot of the content-keyed observation memo."""
        return self._memo.stats()

    def _observation_key(
        self,
        rendered: RenderedChart,
        behaviors: BehaviorRegistry,
        double_snapshot: bool,
    ) -> tuple | None:
        render_fp = getattr(rendered, "render_fingerprint", None)
        if render_fp is None:
            return None
        return (
            render_fp,
            behaviors.fingerprint(),
            self.name,
            self.worker_count,
            self.seed,
            bool(double_snapshot),
        )
