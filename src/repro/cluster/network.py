"""The cluster network: who can talk to whom, and through what.

This module combines the flat pod network, service virtual IPs, and
NetworkPolicy enforcement into a single connectivity engine.  It answers the
questions the runtime probe and the attack scenarios ask:

* can pod A open a TCP connection to pod B on port P?
* can pod A reach service S, and which backends would receive the traffic?
* which endpoints in the whole cluster remain reachable from a compromised
  pod (the lateral-movement surface)?

Cluster-wide questions run through :class:`ReachabilityMatrix`, the batched
engine built on the compiled policy index: it precomputes per-destination
isolating sets and named ports once, memoizes whole policy decisions by
source/destination equivalence class, and answers all-pairs reachability
without re-scanning the policy list per connection attempt.

Surfaces are computed by the *vectorized* engine by default: destination
endpoints are assigned stable integer ids in an :class:`EndpointUniverse`
(one per policy epoch), endpoints sharing a policy-decision class are packed
into int bitmasks, and a source class's reachable surface becomes a handful
of memoized decisions OR-ed over class masks instead of a per-destination
Python walk.  The per-object grouped walk stays in-tree behind
``vectorized=False`` as the differential reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..k8s import NetworkPolicy
from .cni import NetworkPolicyEnforcer, PolicyDecision
from .endpoints import ServiceBinding
from .errors import DuplicatePodError
from .policy_index import PolicyIndex
from .runtime import RunningPod, Socket


@dataclass(frozen=True)
class ConnectionAttempt:
    """The result of a simulated connection attempt."""

    source: str
    destination: str
    port: int
    protocol: str = "TCP"
    success: bool = False
    reason: str = ""
    via_service: str = ""
    backend_pod: str = ""

    def __bool__(self) -> bool:
        return self.success


@dataclass(frozen=True)
class ReachableEndpoint:
    """An endpoint (pod socket or service port) reachable from a source pod.

    Frozen: surfaces answered from the matrix share endpoint instances
    between every pod of a policy-equivalence class, so mutation would
    corrupt the memoized class surfaces.
    """

    kind: str  # "pod" or "service"
    namespace: str
    name: str
    port: int
    protocol: str = "TCP"
    dynamic: bool = False
    app: str = ""


def _attempt_pod_connection(
    decide,
    source: RunningPod,
    destination: RunningPod,
    port: int,
    protocol: str,
) -> ConnectionAttempt:
    """Socket/loopback gating + policy decision for one pod-to-pod attempt.

    The single implementation behind both the per-attempt path
    (``ClusterNetwork.connect_pod_to_pod``) and the cached matrix path;
    ``decide(source, destination, port, protocol)`` supplies the
    :class:`PolicyDecision` (uncached enforcer call or matrix memo).
    """
    same_pod = source.name == destination.name and source.namespace == destination.namespace
    socket = destination.socket_on(port, protocol)
    if socket is None:
        return ConnectionAttempt(
            source=source.name,
            destination=destination.name,
            port=port,
            protocol=protocol,
            success=False,
            reason="connection refused: nothing is listening on that port",
        )
    if socket.interface == "127.0.0.1" and not same_pod:
        return ConnectionAttempt(
            source=source.name,
            destination=destination.name,
            port=port,
            protocol=protocol,
            success=False,
            reason="connection refused: socket is bound to the loopback interface",
        )
    decision: PolicyDecision = decide(source, destination, port, protocol)
    return ConnectionAttempt(
        source=source.name,
        destination=destination.name,
        port=port,
        protocol=protocol,
        success=decision.allowed,
        reason=decision.reason,
    )


def _attempt_service_connection(
    connect,
    source: RunningPod,
    binding: ServiceBinding,
    port: int,
    protocol: str,
) -> ConnectionAttempt:
    """Service-port resolution + backend loop for one pod-to-service attempt.

    ``connect(source, backend, target_port, protocol)`` performs the
    underlying pod-to-pod attempt (uncached or matrix-cached); everything
    else -- port lookup, empty-endpoint handling, named-target resolution,
    backend order and reason strings -- lives here exactly once.
    """
    service = binding.service
    service_port = next((p for p in service.ports if p.port == port), None)
    if service_port is None:
        return ConnectionAttempt(
            source=source.name,
            destination=service.name,
            port=port,
            protocol=protocol,
            success=False,
            via_service=service.name,
            reason=f"service {service.name!r} does not expose port {port}",
        )
    if not binding.backends:
        return ConnectionAttempt(
            source=source.name,
            destination=service.name,
            port=port,
            protocol=protocol,
            success=False,
            via_service=service.name,
            reason="no endpoints: the service selector matches no running pod",
        )
    raw_target = service_port.resolved_target()
    last_reason = ""
    for backend in binding.backends:
        target_port = (
            raw_target
            if isinstance(raw_target, int)
            else backend.named_ports().get(str(raw_target))
        )
        if target_port is None:
            last_reason = f"named target port {raw_target!r} is not declared by pod {backend.name!r}"
            continue
        attempt = connect(source, backend, target_port, protocol)
        if attempt.success:
            return ConnectionAttempt(
                source=source.name,
                destination=service.name,
                port=port,
                protocol=protocol,
                success=True,
                via_service=service.name,
                backend_pod=backend.name,
                reason=attempt.reason,
            )
        last_reason = attempt.reason
    return ConnectionAttempt(
        source=source.name,
        destination=service.name,
        port=port,
        protocol=protocol,
        success=False,
        via_service=service.name,
        reason=last_reason or "no backend accepted the connection",
    )


#: byte value -> indices of its set bits, for the pure-python materializer.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if (byte >> bit) & 1) for byte in range(256)
)


@functools.cache
def _numpy():
    """numpy for :meth:`EndpointUniverse.materialize`, or None if absent.

    Imported on the first call that needs it rather than with this module:
    the import costs more than most sweeps spend in the reachability engine,
    and only a surface whose mask is neither empty nor full reads it.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _pack_bits(bits: list[int], size: int) -> int:
    """The int bitmask with exactly ``bits`` set, out of ``size`` positions."""
    if not bits:
        return 0
    buffer = bytearray((size + 7) >> 3)
    for bit in bits:
        buffer[bit >> 3] |= 1 << (bit & 7)
    return int.from_bytes(buffer, "little")


class _DecisionClass:
    """One policy-decision equivalence class of destination endpoints.

    Every endpoint (pod socket or service backend target) whose decision
    memo-key tail -- ``(id(isolating set), named ports, port, protocol)``
    -- is identical lands in one class: a single memoized decision against
    the representative destination settles the whole pod-endpoint ``mask``
    and every service backend referencing the class, for any source class.
    """

    __slots__ = ("mask", "isolating", "representative", "port", "protocol")

    def __init__(
        self, isolating: tuple, representative: RunningPod, port: int, protocol: str
    ) -> None:
        self.mask = 0
        self.isolating = isolating
        self.representative = representative
        self.port = port
        self.protocol = protocol


class _ServicePlan:
    """One service port with its backend resolution precomputed.

    ``backends`` holds ``(decision token or None, is_loopback, ident)`` for
    every backend whose named target resolves and whose socket exists --
    the class-independent half of ``_class_service_success``, done once per
    universe instead of once per source class.  A ``None`` token marks an
    unisolated backend (its decision is a source-free allow); any other
    token keys the universe's ``decision_classes``.
    """

    __slots__ = ("endpoint", "backends")

    def __init__(self, endpoint: ReachableEndpoint, backends: tuple) -> None:
        self.endpoint = endpoint
        self.backends = backends


class EndpointUniverse:
    """Stable integer ids for every destination endpoint of one snapshot.

    Built once per policy epoch (the cluster facade caches it keyed on
    ``(policy_epoch, include_loopback)``) and shared by every matrix over
    that snapshot.  Ids follow the grouped reference walk exactly -- pods in
    list order, sockets in pod order, with the same loopback/resolution
    gating -- so a surface materialized from a bitmask is byte-identical,
    entry for entry and in the same order, to the per-object walk.
    """

    __slots__ = ("size", "pod_entries", "free_mask", "full_mask", "decision_classes", "service_plans")

    def __init__(
        self,
        index: PolicyIndex,
        pods: list[RunningPod],
        bindings: list[ServiceBinding],
        include_loopback: bool = False,
    ) -> None:
        pod_entries: list[tuple[tuple[str, str], ReachableEndpoint]] = []
        #: Bit *indices* per class, packed into int masks only once the walk
        #: is done: appending an index is O(1) where ``mask |= 1 << n`` would
        #: re-copy a size-n bigint per endpoint.
        free_bits: list[int] = []
        class_bits: dict[tuple, list[int]] = {}
        classes: dict[tuple, _DecisionClass] = {}
        #: destination -> (isolating, named_key, ports_matter), shared with
        #: the service plan pass below so backends reuse the pod walk's
        #: lookups.
        dest_info: dict[tuple[str, str], tuple[tuple, tuple, bool]] = {}
        for destination in pods:
            isolating = index.isolating(destination)
            # Same gating as ``ReachabilityMatrix._destination_info``: the
            # named-port key participates in class identity only when some
            # isolating policy names a port, and the port itself only when
            # some rule lists ports, so the two layers build identical memo
            # keys and share decision entries.
            ports_matter = bool(isolating) and index.constrains_ports(isolating)
            if ports_matter and index.uses_named_ports(isolating):
                named_key = tuple(sorted(destination.named_ports().items()))
            else:
                named_key = ()
            dest_ident = destination.ident
            dest_info[dest_ident] = (isolating, named_key, ports_matter)
            # First socket per (port, protocol) wins, as in ``socket_on``:
            # a later duplicate is shadowed by the earlier one's interface.
            first_on: dict[tuple[int, str], Socket] = {}
            for socket in destination.sockets:
                resolved = first_on.setdefault((socket.port, socket.protocol), socket)
                if not include_loopback and not socket.reachable_from_network:
                    continue
                if resolved.interface == "127.0.0.1":
                    continue
                bit = len(pod_entries)
                pod_entries.append(
                    (
                        dest_ident,
                        ReachableEndpoint(
                            kind="pod",
                            namespace=dest_ident[0],
                            name=dest_ident[1],
                            port=socket.port,
                            protocol=socket.protocol,
                            dynamic=socket.dynamic,
                            app=destination.app,
                        ),
                    )
                )
                if not isolating:
                    # Decisions for unisolated destinations are source-free
                    # allows; their endpoints join every class surface.
                    free_bits.append(bit)
                    continue
                if ports_matter:
                    key = (id(isolating), named_key, socket.port, socket.protocol)
                else:
                    key = (id(isolating), named_key, None, None)
                bits = class_bits.get(key)
                if bits is None:
                    classes[key] = _DecisionClass(
                        isolating, destination, socket.port, socket.protocol
                    )
                    class_bits[key] = [bit]
                else:
                    bits.append(bit)
        size = len(pod_entries)
        self.size = size
        self.pod_entries = pod_entries
        self.free_mask = _pack_bits(free_bits, size)
        self.full_mask = (1 << size) - 1
        for key, bits in class_bits.items():
            classes[key].mask = _pack_bits(bits, size)
        self.service_plans = tuple(
            self._service_plan(index, binding, service_port, classes, dest_info)
            for binding in bindings
            for service_port in binding.service.ports
        )
        self.decision_classes = classes

    @staticmethod
    def _service_plan(
        index: PolicyIndex,
        binding: ServiceBinding,
        service_port,
        classes: dict[tuple, _DecisionClass],
        dest_info: dict[tuple[str, str], tuple[tuple, tuple]],
    ) -> _ServicePlan:
        service = binding.service
        endpoint = ReachableEndpoint(
            kind="service",
            namespace=service.namespace,
            name=service.name,
            port=service_port.port,
            protocol=service_port.protocol,
            app=service.labels.get("app.kubernetes.io/part-of", ""),
        )
        # Port lookup is by number, first match winning, exactly as the
        # per-attempt path resolves it (duplicate port numbers included).
        effective = next((p for p in service.ports if p.port == service_port.port), None)
        if effective is None or not binding.backends:
            return _ServicePlan(endpoint, ())
        raw_target = effective.resolved_target()
        protocol = service_port.protocol
        backends = []
        for backend in binding.backends:
            target_port = (
                raw_target
                if isinstance(raw_target, int)
                else backend.named_ports().get(str(raw_target))
            )
            if target_port is None:
                continue
            socket = backend.socket_on(target_port, protocol)
            if socket is None:
                continue
            info = dest_info.get(backend.ident)
            if info is None:
                isolating = index.isolating(backend)
                ports_matter = bool(isolating) and index.constrains_ports(isolating)
                if ports_matter and index.uses_named_ports(isolating):
                    named = tuple(sorted(backend.named_ports().items()))
                else:
                    named = ()
                info = (isolating, named, ports_matter)
                dest_info[backend.ident] = info
            isolating, named_key, ports_matter = info
            if not isolating:
                token = None
            else:
                if ports_matter:
                    token = (id(isolating), named_key, target_port, protocol)
                else:
                    token = (id(isolating), named_key, None, None)
                if token not in classes:
                    # Service-only class: no pod-endpoint bits, but its
                    # verdict is still needed once per source class.
                    classes[token] = _DecisionClass(
                        isolating, backend, target_port, protocol
                    )
            backends.append(
                (token, socket.interface == "127.0.0.1", backend.ident)
            )
        return _ServicePlan(endpoint, tuple(backends))

    def materialize(self, mask: int) -> list:
        """The ``(ident, endpoint)`` entries of ``mask``, in id order."""
        entries = self.pod_entries
        if mask == self.full_mask:
            return entries[:]
        if not mask:
            return []
        data = mask.to_bytes((self.size + 7) >> 3, "little")
        np = _numpy()
        if np is not None:
            bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
            return [entries[i] for i in np.flatnonzero(bits).tolist()]
        out = []
        base = 0
        for byte in data:
            if byte:
                for offset in _BYTE_BITS[byte]:
                    out.append(entries[base + offset])
            base += 8
        return out


class ReachabilityMatrix:
    """Batched connectivity over a fixed snapshot of pods, bindings, policies.

    Build one per cluster state (the cluster facade does this for you via
    ``Cluster.reachability_matrix()``) and ask it for any number of
    connection attempts or per-source endpoint surfaces.  Internally it
    shares, across every query:

    * the compiled :class:`PolicyIndex` (isolating sets memoized per label
      set -- replicas resolve in O(1));
    * per-destination named-port keys;
    * whole :class:`PolicyDecision` objects memoized by the equivalence
      class of the attempt -- ``(source namespace+labels, destination
      isolating set, destination named ports, port, protocol)`` -- so a
      thousand pods probing the same destination port cost one evaluation.

    Results are bit-identical to the per-attempt path: decisions come from
    ``NetworkPolicyEnforcer.check_ingress`` on cache miss, and the
    socket/loopback gating mirrors ``connect_pod_to_pod`` exactly.
    """

    def __init__(
        self,
        network: "ClusterNetwork",
        index: PolicyIndex | None,
        pods: list[RunningPod],
        bindings: list[ServiceBinding],
        include_loopback: bool = False,
        naive_policies: list[NetworkPolicy] | None = None,
        vectorized: bool = True,
        universe_cache: dict | None = None,
    ) -> None:
        self._network = network
        self._enforcer = network.enforcer
        self.index = index
        self.pods = list(pods)
        self.bindings = list(bindings)
        self.include_loopback = include_loopback
        #: ``False`` pins class surfaces to the per-object grouped walk --
        #: the reference implementation the vectorized engine is proven
        #: byte-identical against.
        self.vectorized = vectorized
        #: The compiled endpoint universe, built lazily on the first surface
        #: query (connection-attempt-only users never pay for it), optionally
        #: shared across matrices through ``universe_cache`` (the cluster
        #: facade passes its epoch-keyed cache).
        self._universe: EndpointUniverse | None = None
        self._universe_cache = universe_cache
        #: When set (and ``index`` is ``None``) the matrix runs in naive mode:
        #: every query delegates to the uncached per-attempt path with this
        #: policy list.  This is the pre-compilation reference used by the
        #: differential tests and the before/after benchmarks.
        self._naive_policies = naive_policies
        #: (namespace, name) -> (isolating, named-port key, hostNetwork,
        #: ports-matter flag)
        self._dest_info: dict[tuple[str, str], tuple[tuple, tuple, bool, bool]] = {}
        #: Adaptive tier: the first couple of decisions are answered with the
        #: naive-cost direct scan; the memoized machinery (isolating cache,
        #: destination info, decision memo) is engaged only once the attempt
        #: stream is long enough for it to pay.  Single-attempt probes -- the
        #: dominant shape of a per-chart sweep -- therefore cost exactly what
        #: the reference path costs.
        self._naive_tier_left = 2
        #: (namespace, name) -> hashable source equivalence key
        self._source_keys: dict[tuple[str, str], tuple] = {}
        #: decision memo, keyed by attempt equivalence class
        self._decisions: dict[tuple, PolicyDecision] = {}
        #: source class key -> (pod entries, service entries); the whole
        #: reachable surface of an equivalence class, computed once and
        #: filtered per member (see :meth:`endpoints_from`).
        self._class_surfaces: dict[tuple, tuple[list, list]] = {}

    # Equivalence keys --------------------------------------------------------
    def _destination_info(self, destination: RunningPod) -> tuple[tuple, tuple, bool, bool]:
        info = self._dest_info.get(destination.ident)
        if info is None:
            isolating = self.index.isolating(destination)
            # Named ports can only influence a decision when some isolating
            # policy names one; otherwise every named-port table lands in the
            # same decision class, so skip building the key (and let pods
            # with different named ports share memo entries).  When no rule
            # lists ports at all the decision is port-independent too, so
            # every probed port of the destination shares one memo entry.
            ports_matter = bool(isolating) and self.index.constrains_ports(isolating)
            if ports_matter and self.index.uses_named_ports(isolating):
                named_key = tuple(sorted(destination.named_ports().items()))
            else:
                named_key = ()
            info = (isolating, named_key, destination.host_network, ports_matter)
            self._dest_info[destination.ident] = info
        return info

    def _source_key(self, source: RunningPod) -> tuple:
        key = source.ident
        cached = self._source_keys.get(key)
        if cached is None:
            cached = (key[0], source.label_items())
            self._source_keys[key] = cached
        return cached

    # Decisions ---------------------------------------------------------------
    def decision(
        self,
        source: RunningPod,
        destination: RunningPod,
        port: int,
        protocol: str = "TCP",
    ) -> PolicyDecision:
        """The (memoized) policy decision for one connection attempt."""
        if self.index is None:
            return self._enforcer.check_ingress(
                self._naive_policies or [], source, destination, port, protocol
            )
        if self._naive_tier_left and not self._decisions:
            # Matches the naive ``policies_isolating`` scan exactly (host
            # network escapes enforcement, original list order preserved),
            # so tiered decisions are value-identical to memoized ones.
            self._naive_tier_left -= 1
            if destination.host_network:
                isolating = ()
            else:
                labels = destination.labels
                namespace = destination.namespace
                isolating = tuple(
                    policy
                    for policy in self.index.policies
                    if policy.restricts_ingress()
                    and policy.selects(labels, namespace)
                )
            return self._enforcer.decide_ingress(
                isolating, source, destination, port, protocol
            )
        isolating, named_key, host_network, ports_matter = self._destination_info(destination)
        if not isolating:
            # Unisolated destinations resolve to the enforcer's shared
            # default-allow decisions; ``decide_ingress`` short-circuits to a
            # singleton, so routing through the memo would only add a dict
            # entry per attempt class.
            return self._enforcer.decide_ingress(
                isolating, source, destination, port, protocol
            )
        if ports_matter:
            memo_key = (self._source_key(source), id(isolating), named_key, port, protocol)
        else:
            memo_key = (self._source_key(source), id(isolating), named_key, None, None)
        decision = self._decisions.get(memo_key)
        if decision is None:
            decision = self._enforcer.decide_ingress(
                isolating, source, destination, port, protocol
            )
            self._decisions[memo_key] = decision
        return decision

    # Connection attempts -----------------------------------------------------
    def connect(
        self,
        source: RunningPod,
        destination: RunningPod,
        port: int,
        protocol: str = "TCP",
    ) -> ConnectionAttempt:
        """Cached equivalent of ``ClusterNetwork.connect_pod_to_pod``."""
        if self.index is None:
            return self._network.connect_pod_to_pod(
                self._naive_policies or [], source, destination, port, protocol
            )
        return _attempt_pod_connection(self.decision, source, destination, port, protocol)

    def connect_via_service(
        self,
        source: RunningPod,
        binding: ServiceBinding,
        port: int,
        protocol: str = "TCP",
    ) -> ConnectionAttempt:
        """Cached equivalent of ``ClusterNetwork.connect_pod_to_service``."""
        if self.index is None:
            return self._network.connect_pod_to_service(
                self._naive_policies or [], source, binding, port, protocol
            )
        return _attempt_service_connection(self.connect, source, binding, port, protocol)

    # Surfaces ----------------------------------------------------------------
    def endpoints_from(self, source: RunningPod) -> list[ReachableEndpoint]:
        """Every pod socket and service port reachable from ``source``.

        Answered from the source's *class surface*: the full reachable
        surface of the source's policy-equivalence class -- the
        ``(namespace, labels)`` key every decision is memoized under --
        computed once per class against every destination and service, then
        filtered per member with two exact corrections:

        * the member's own sockets are excluded (a pod is not part of its
          own lateral-movement surface);
        * a service whose only accepting backend path is loopback-bound is
          reachable solely by that backend pod itself (``same_pod``
          semantics), so such endpoints are attached per-member.

        Results are identical, entry for entry and in the same order, to the
        per-attempt reference scan; endpoint objects are shared between
        members of a class, so treat them as read-only.
        """
        if self.index is None:
            return self._endpoints_from_uncached(source)
        class_key = self._source_key(source)
        surface = self._class_surfaces.get(class_key)
        if surface is None:
            if self.vectorized:
                surface = self._class_surface_vectorized(source)
            else:
                surface = (
                    self._class_pod_endpoints(source),
                    self._class_service_endpoints(source),
                )
            self._class_surfaces[class_key] = surface
        pod_entries, service_entries = surface
        source_key = source.ident
        reachable = [
            endpoint
            for destination_key, endpoint in pod_entries
            if destination_key != source_key
        ]
        reachable.extend(
            endpoint
            for only_members, endpoint in service_entries
            if only_members is None or source_key in only_members
        )
        return reachable

    def _endpoints_from_uncached(self, source: RunningPod) -> list[ReachableEndpoint]:
        """The per-attempt reference scan (naive mode keeps this path)."""
        reachable: list[ReachableEndpoint] = []
        for destination in self.pods:
            if destination is source:
                continue
            for socket in destination.sockets:
                if not self.include_loopback and not socket.reachable_from_network:
                    continue
                attempt = self.connect(source, destination, socket.port, socket.protocol)
                if attempt.success:
                    reachable.append(
                        ReachableEndpoint(
                            kind="pod",
                            namespace=destination.namespace,
                            name=destination.name,
                            port=socket.port,
                            protocol=socket.protocol,
                            dynamic=socket.dynamic,
                            app=destination.app,
                        )
                    )
        for binding in self.bindings:
            for service_port in binding.service.ports:
                attempt = self.connect_via_service(
                    source, binding, service_port.port, service_port.protocol
                )
                if attempt.success:
                    reachable.append(
                        ReachableEndpoint(
                            kind="service",
                            namespace=binding.service.namespace,
                            name=binding.service.name,
                            port=service_port.port,
                            protocol=service_port.protocol,
                            app=binding.service.labels.get("app.kubernetes.io/part-of", ""),
                        )
                    )
        return reachable

    def all_pairs(self) -> dict[tuple[str, str], list[ReachableEndpoint]]:
        """The reachable surface of every pod, keyed by ``(namespace, name)``.

        One class-surface computation per source equivalence class -- O(
        classes x destinations) instead of O(sources x destinations) -- with
        every member sharing its class's memoized surface through
        :meth:`endpoints_from`.

        Raises :class:`DuplicatePodError` when two pods of the snapshot
        share one ``(namespace, name)`` identity: the result is keyed on it,
        so a duplicate would silently overwrite the first pod's surface.
        """
        if len({pod.ident for pod in self.pods}) != len(self.pods):
            seen: set[tuple[str, str]] = set()
            for pod in self.pods:
                if pod.ident in seen:
                    raise DuplicatePodError(pod.name, pod.namespace)
                seen.add(pod.ident)
        return {source.ident: self.endpoints_from(source) for source in self.pods}

    # Vectorized class surfaces ----------------------------------------------
    def endpoint_universe(self) -> EndpointUniverse:
        """The compiled endpoint universe of this snapshot (built lazily).

        Shared across matrices of the same policy epoch when the cluster
        facade supplied its universe cache; safe because the epoch moves on
        every mutation that could change pods, sockets or policies.
        """
        universe = self._universe
        if universe is None:
            cache = self._universe_cache
            key = None
            if cache is not None:
                key = (self.index.epoch, self.include_loopback)
                universe = cache.get(key)
            if universe is None:
                universe = EndpointUniverse(
                    self.index, self.pods, self.bindings, self.include_loopback
                )
                if cache is not None:
                    cache[key] = universe
            self._universe = universe
        return universe

    def _class_surface_vectorized(self, source: RunningPod) -> tuple[list, list]:
        """One source class's whole surface, as bitmask set algebra.

        Runs every decision class exactly once -- through the same decision
        memo the per-attempt path uses, so ``connect`` and surfaces share
        results -- then ORs the allowed classes' masks over the source-free
        allow mask and materializes the surviving bits in id order (the
        grouped walk's order).  Service plans replay the reference backend
        loop against the verdict table: same first-network-accept
        short-circuit, same loopback ``same_pod`` collection, no per-class
        re-resolution.
        """
        universe = self.endpoint_universe()
        memo = self._decisions
        decide = self._enforcer.decide_ingress
        source_key = self._source_key(source)
        verdicts: dict[tuple, bool] = {}
        allowed = universe.free_mask
        for token, decision_class in universe.decision_classes.items():
            memo_key = (source_key, *token)
            decision = memo.get(memo_key)
            if decision is None:
                decision = decide(
                    decision_class.isolating,
                    source,
                    decision_class.representative,
                    decision_class.port,
                    decision_class.protocol,
                )
                memo[memo_key] = decision
            if decision.allowed:
                verdicts[token] = True
                allowed |= decision_class.mask
            else:
                verdicts[token] = False
        pod_entries = universe.materialize(allowed)
        service_entries: list[tuple[frozenset[tuple[str, str]] | None, ReachableEndpoint]] = []
        for plan in universe.service_plans:
            reachable_by_all = False
            self_only: list[tuple[str, str]] = []
            for token, is_loopback, ident in plan.backends:
                if token is not None and not verdicts[token]:
                    continue
                if is_loopback:
                    self_only.append(ident)
                else:
                    reachable_by_all = True
                    break
            if reachable_by_all:
                service_entries.append((None, plan.endpoint))
            elif self_only:
                service_entries.append((frozenset(self_only), plan.endpoint))
        return pod_entries, service_entries

    def _class_pod_endpoints(
        self, representative: RunningPod
    ) -> list[tuple[tuple[str, str], ReachableEndpoint]]:
        """Pod endpoints reachable by every member of one source class.

        Computed with non-``same_pod`` semantics (gating on the socket the
        connection would actually resolve to, exactly as the per-attempt
        path does), which is correct for every class member except the
        destination pod itself -- and that pair is excluded by the caller.
        """
        entries: list[tuple[tuple[str, str], ReachableEndpoint]] = []
        include_loopback = self.include_loopback
        for destination in self.pods:
            for socket in destination.sockets:
                if not include_loopback and not socket.reachable_from_network:
                    continue
                resolved = destination.socket_on(socket.port, socket.protocol)
                if resolved is None or resolved.interface == "127.0.0.1":
                    continue
                if self.decision(
                    representative, destination, socket.port, socket.protocol
                ).allowed:
                    entries.append(
                        (
                            (destination.namespace, destination.name),
                            ReachableEndpoint(
                                kind="pod",
                                namespace=destination.namespace,
                                name=destination.name,
                                port=socket.port,
                                protocol=socket.protocol,
                                dynamic=socket.dynamic,
                                app=destination.app,
                            ),
                        )
                    )
        return entries

    def _class_service_endpoints(
        self, representative: RunningPod
    ) -> list[tuple[frozenset[tuple[str, str]] | None, ReachableEndpoint]]:
        """Service endpoints reachable by one source class.

        Each entry carries ``None`` when every class member reaches it, or
        the set of ``(namespace, name)`` keys of the only pods that do --
        backends whose sole accepting socket is loopback-bound, reachable
        through the service only by themselves (``same_pod`` semantics).
        """
        entries: list[tuple[frozenset[tuple[str, str]] | None, ReachableEndpoint]] = []
        for binding in self.bindings:
            service = binding.service
            for service_port in binding.service.ports:
                reachable_by_all, self_only = self._class_service_success(
                    representative, binding, service_port.port, service_port.protocol
                )
                if not reachable_by_all and not self_only:
                    continue
                entries.append(
                    (
                        None if reachable_by_all else frozenset(self_only),
                        ReachableEndpoint(
                            kind="service",
                            namespace=service.namespace,
                            name=service.name,
                            port=service_port.port,
                            protocol=service_port.protocol,
                            app=service.labels.get("app.kubernetes.io/part-of", ""),
                        ),
                    )
                )
        return entries

    def _class_service_success(
        self,
        representative: RunningPod,
        binding: ServiceBinding,
        port: int,
        protocol: str,
    ) -> tuple[bool, list[tuple[str, str]]]:
        """Whether one source class reaches a service port, per member.

        Returns ``(reachable_by_all, self_only_backends)``.  Mirrors
        ``_attempt_service_connection`` exactly: the service port is looked
        up by number (the first match wins, as in the per-attempt path),
        named targets resolve per backend, and a backend accepts when its
        socket exists, is not loopback-bound, and the policy decision -- a
        function of the source *class* only -- allows the connection.  A
        loopback-bound accepting socket counts only for the backend pod
        itself, which is the single ``same_pod`` case a service hop allows.
        """
        service = binding.service
        service_port = next((p for p in service.ports if p.port == port), None)
        if service_port is None or not binding.backends:
            return False, []
        raw_target = service_port.resolved_target()
        self_only: list[tuple[str, str]] = []
        for backend in binding.backends:
            target_port = (
                raw_target
                if isinstance(raw_target, int)
                else backend.named_ports().get(str(raw_target))
            )
            if target_port is None:
                continue
            socket = backend.socket_on(target_port, protocol)
            if socket is None:
                continue
            if not self.decision(representative, backend, target_port, protocol).allowed:
                continue
            if socket.interface == "127.0.0.1":
                self_only.append((backend.namespace, backend.name))
            else:
                return True, []
        return False, self_only


@dataclass
class ClusterNetwork:
    """Connectivity engine over running pods, bindings and policies."""

    enforcer: NetworkPolicyEnforcer = field(default_factory=NetworkPolicyEnforcer)

    # Pod-to-pod ----------------------------------------------------------------
    def connect_pod_to_pod(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        source: RunningPod,
        destination: RunningPod,
        port: int,
        protocol: str = "TCP",
    ) -> ConnectionAttempt:
        """Attempt a direct connection to a destination pod IP and port."""

        def decide(src: RunningPod, dst: RunningPod, p: int, proto: str) -> PolicyDecision:
            return self.enforcer.check_ingress(policies, src, dst, p, proto)

        return _attempt_pod_connection(decide, source, destination, port, protocol)

    # Pod-to-service ----------------------------------------------------------------
    def connect_pod_to_service(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        source: RunningPod,
        binding: ServiceBinding,
        port: int,
        protocol: str = "TCP",
    ) -> ConnectionAttempt:
        """Attempt a connection through a service virtual IP (or headless DNS).

        The service proxy picks backends in turn; the attempt succeeds when at
        least one selected backend accepts the forwarded connection.
        """

        def connect(src: RunningPod, backend: RunningPod, p: int, proto: str) -> ConnectionAttempt:
            return self.connect_pod_to_pod(policies, src, backend, p, proto)

        return _attempt_service_connection(connect, source, binding, port, protocol)

    def service_backends_receiving(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        source: RunningPod,
        binding: ServiceBinding,
        port: int,
        protocol: str = "TCP",
    ) -> list[RunningPod]:
        """Backends that would receive traffic sent by ``source`` to a service port.

        Used by the Thanos-style impersonation scenario: when an attacker pod
        carries the same labels as the legitimate backends, it appears in this
        list and receives a share of the traffic.
        """
        service_port = next((p for p in binding.service.ports if p.port == port), None)
        if service_port is None:
            return []
        raw_target = service_port.resolved_target()
        receiving: list[RunningPod] = []
        for backend in binding.backends:
            target_port = (
                raw_target
                if isinstance(raw_target, int)
                else backend.named_ports().get(str(raw_target))
            )
            if target_port is None:
                continue
            if self.connect_pod_to_pod(policies, source, backend, target_port, protocol).success:
                receiving.append(backend)
        return receiving

    # Cluster-wide reachability ------------------------------------------------------
    def reachability_matrix(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        pods: list[RunningPod],
        bindings: list[ServiceBinding],
        include_loopback: bool = False,
        vectorized: bool = True,
        universe_cache: dict | None = None,
    ) -> ReachabilityMatrix:
        """Compile ``policies`` (if needed) and build a batched matrix.

        When the enforcer has the compiled engine disabled and ``policies``
        is a raw list, the matrix is built in naive mode: same API, but every
        query takes the uncached reference path (the pre-compilation code).
        ``vectorized=False`` pins class surfaces to the per-object grouped
        reference walk.
        """
        if isinstance(policies, PolicyIndex):
            return ReachabilityMatrix(
                self,
                policies,
                pods,
                bindings,
                include_loopback,
                vectorized=vectorized,
                universe_cache=universe_cache,
            )
        if not self.enforcer.use_index:
            return ReachabilityMatrix(
                self, None, pods, bindings, include_loopback, naive_policies=list(policies)
            )
        index = self.enforcer.index_for(policies)
        return ReachabilityMatrix(
            self,
            index,
            pods,
            bindings,
            include_loopback,
            vectorized=vectorized,
            universe_cache=universe_cache,
        )

    def reachable_endpoints(
        self,
        policies: list[NetworkPolicy] | PolicyIndex,
        source: RunningPod,
        pods: list[RunningPod],
        bindings: list[ServiceBinding],
        include_loopback: bool = False,
    ) -> list[ReachableEndpoint]:
        """Every pod socket and service port reachable from ``source``.

        This is the lateral-movement surface of a compromised container: the
        paper's Figure 4b counts exactly these endpoints for misconfigured
        applications after enabling network policies.  Runs through a
        :class:`ReachabilityMatrix` unless the enforcer has the compiled
        engine disabled, in which case the original per-attempt scan is kept
        as the reference path.
        """
        if isinstance(policies, PolicyIndex) or self.enforcer.use_index:
            matrix = self.reachability_matrix(policies, pods, bindings, include_loopback)
            return matrix.endpoints_from(source)
        reachable: list[ReachableEndpoint] = []
        for destination in pods:
            if destination is source:
                continue
            for socket in destination.sockets:
                if not include_loopback and not socket.reachable_from_network:
                    continue
                attempt = self.connect_pod_to_pod(
                    policies, source, destination, socket.port, socket.protocol
                )
                if attempt.success:
                    reachable.append(
                        ReachableEndpoint(
                            kind="pod",
                            namespace=destination.namespace,
                            name=destination.name,
                            port=socket.port,
                            protocol=socket.protocol,
                            dynamic=socket.dynamic,
                            app=destination.app,
                        )
                    )
        for binding in bindings:
            for service_port in binding.service.ports:
                attempt = self.connect_pod_to_service(
                    policies, source, binding, service_port.port, service_port.protocol
                )
                if attempt.success:
                    reachable.append(
                        ReachableEndpoint(
                            kind="service",
                            namespace=binding.service.namespace,
                            name=binding.service.name,
                            port=service_port.port,
                            protocol=service_port.protocol,
                            app=binding.service.labels.get("app.kubernetes.io/part-of", ""),
                        )
                    )
        return reachable
