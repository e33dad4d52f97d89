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

Surfaces are computed by the bitset engine: destination endpoints are
assigned stable integer ids in an :class:`EndpointUniverse` (one per policy
epoch), endpoints sharing a policy-decision class are packed into int
bitmasks, and a source class's reachable surface becomes a handful of
memoized decisions OR-ed over class masks instead of a per-destination
Python walk.  Its one reference is the per-attempt scan
(:meth:`ReachabilityMatrix.scan_endpoints`), which a matrix built without
the compiled index (``use_index=False`` / ``compiled_policies=False``)
answers every surface with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..k8s import NetworkPolicy
from ..memo import remember
from .cni import NetworkPolicyEnforcer, PolicyDecision, scan_isolating
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


#: How many endpoint universes a shared ``universe_cache`` keeps.
_UNIVERSE_CACHE_MAXSIZE = 8

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


def _decision_token(
    index: PolicyIndex,
    keys: dict[tuple[str, str], tuple[tuple, tuple, bool]],
    destination: RunningPod,
    port: int,
    protocol: str,
) -> tuple[tuple, tuple | None]:
    """``(isolating set, memo token)`` of one attempt against ``destination``.

    Two attempts with equal tokens get equal decisions from any source, so
    the token keys the matrix's decision memo and the universe's decision
    classes alike.  It is ``None`` for an unisolated destination, whose
    decision is a source-free allow.  ``keys`` caches each destination's
    port-independent half, ``(isolating set, named-port key, ports matter)``:
    named ports join the key only when some isolating policy names one, and
    the port only when some rule lists ports at all, so pods with different
    named ports, and every port of a port-free destination, share classes.
    """
    ident = destination.ident
    key = keys.get(ident)
    if key is None:
        isolating = index.isolating(destination)
        ports_matter = bool(isolating) and index.constrains_ports(isolating)
        if ports_matter and index.uses_named_ports(isolating):
            named_key = tuple(sorted(destination.named_ports().items()))
        else:
            named_key = ()
        key = keys[ident] = (isolating, named_key, ports_matter)
    isolating, named_key, ports_matter = key
    if not isolating:
        return isolating, None
    if ports_matter:
        return isolating, (id(isolating), named_key, port, protocol)
    return isolating, (id(isolating), named_key, None, None)


class _DecisionClass:
    """One policy-decision equivalence class of destination endpoints.

    Every endpoint (pod socket or service backend target) with the same
    :func:`_decision_token` lands in one class: a single memoized decision
    against the representative destination settles the whole pod-endpoint
    ``mask`` and every service backend referencing the class, for any
    source class.
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
    the source-independent half of ``_attempt_service_connection``'s
    backend loop, done once per universe instead of once per source class.
    A ``None`` token marks an unisolated backend (its decision is a
    source-free allow); any other token keys the universe's
    ``decision_classes``.
    """

    __slots__ = ("endpoint", "backends")

    def __init__(self, endpoint: ReachableEndpoint, backends: tuple) -> None:
        self.endpoint = endpoint
        self.backends = backends


class EndpointUniverse:
    """Stable integer ids for every destination endpoint of one snapshot.

    Built once per policy epoch (the cluster facade caches it keyed on
    ``(policy_epoch, include_loopback)``) and shared by every matrix over
    that snapshot.  Ids follow the per-attempt scan exactly -- pods in list
    order, sockets in pod order, with the same loopback/resolution gating --
    so a surface materialized from a bitmask is byte-identical, entry for
    entry and in the same order, to
    :meth:`ReachabilityMatrix.scan_endpoints`.
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
        #: Destination keys of :func:`_decision_token`, shared with the
        #: service plan pass below so backends reuse the pod walk's lookups.
        keys: dict[tuple[str, str], tuple[tuple, tuple, bool]] = {}
        for destination in pods:
            dest_ident = destination.ident
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
                isolating, token = _decision_token(
                    index, keys, destination, socket.port, socket.protocol
                )
                if token is None:
                    # Decisions for unisolated destinations are source-free
                    # allows; their endpoints join every class surface.
                    free_bits.append(bit)
                    continue
                bits = class_bits.get(token)
                if bits is None:
                    classes[token] = _DecisionClass(
                        isolating, destination, socket.port, socket.protocol
                    )
                    class_bits[token] = [bit]
                else:
                    bits.append(bit)
        size = len(pod_entries)
        self.size = size
        self.pod_entries = pod_entries
        self.free_mask = _pack_bits(free_bits, size)
        self.full_mask = (1 << size) - 1
        for token, bits in class_bits.items():
            classes[token].mask = _pack_bits(bits, size)
        self.service_plans = tuple(
            self._service_plan(index, binding, service_port, classes, keys)
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
        keys: dict[tuple[str, str], tuple[tuple, tuple, bool]],
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
            isolating, token = _decision_token(index, keys, backend, target_port, protocol)
            if token is not None and token not in classes:
                # Service-only class: no pod-endpoint bits, but its
                # verdict is still needed once per source class.
                classes[token] = _DecisionClass(isolating, backend, target_port, protocol)
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
    ``NetworkPolicyEnforcer.decide_ingress`` on cache miss, and the
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
        universe_cache: dict | None = None,
    ) -> None:
        self._network = network
        self._enforcer = network.enforcer
        self.index = index
        self.pods = list(pods)
        self.bindings = list(bindings)
        self.include_loopback = include_loopback
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
        #: (namespace, name) -> destination key of :func:`_decision_token`
        self._dest_keys: dict[tuple[str, str], tuple[tuple, tuple, bool]] = {}
        #: Adaptive tier: the first couple of decisions are answered with the
        #: naive-cost direct scan; the memoized machinery (isolating cache,
        #: destination keys, decision memo) is engaged only once the attempt
        #: stream is long enough for it to pay.  Single-attempt probes -- the
        #: dominant shape of a per-chart sweep -- therefore cost exactly what
        #: the reference path costs.
        self._naive_tier_left = 2
        #: (namespace, name) -> hashable source equivalence key
        self._source_keys: dict[tuple[str, str], tuple] = {}
        #: decision memo, keyed ``(source key, decision token)``
        self._decisions: dict[tuple, PolicyDecision] = {}
        #: source class key -> (pod entries, service entries); the whole
        #: reachable surface of an equivalence class, computed once and
        #: filtered per member (see :meth:`endpoints_from`).
        self._class_surfaces: dict[tuple, tuple[list, list]] = {}

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
            # The naive isolating scan keeps the original list order, so
            # tiered decisions are value-identical to memoized ones.
            self._naive_tier_left -= 1
            return self._enforcer.decide_ingress(
                scan_isolating(self.index.policies, destination),
                source,
                destination,
                port,
                protocol,
            )
        isolating, token = _decision_token(
            self.index, self._dest_keys, destination, port, protocol
        )
        if token is None:
            # Unisolated destinations resolve to the enforcer's shared
            # default-allow decisions; ``decide_ingress`` short-circuits to a
            # singleton, so routing through the memo would only add a dict
            # entry per attempt class.
            return self._enforcer.decide_ingress(
                isolating, source, destination, port, protocol
            )
        memo_key = (self._source_key(source), token)
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

        Results are identical, entry for entry and in the same order, to
        :meth:`scan_endpoints`, which answers directly in naive mode;
        endpoint objects are shared between members of a class, so treat
        them as read-only.
        """
        if self.index is None:
            return self.scan_endpoints(source)
        class_key = self._source_key(source)
        surface = self._class_surfaces.get(class_key)
        if surface is None:
            surface = self._class_surface(source)
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

    def scan_endpoints(self, source: RunningPod) -> list[ReachableEndpoint]:
        """The per-attempt reference scan: one attempt per socket and port.

        Tries every network-visible socket of every other pod, then every
        service port, through :meth:`connect` and
        :meth:`connect_via_service`.  Pods are told apart by
        ``(namespace, name)`` identity, as in the ``same_pod`` rule, so a
        copy of the source never shows up in its own surface.
        """
        source_ident = source.ident
        reachable: list[ReachableEndpoint] = []
        for destination in self.pods:
            if destination.ident == source_ident:
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

    # Class surfaces ----------------------------------------------------------
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
                    remember(cache, key, universe, _UNIVERSE_CACHE_MAXSIZE)
            self._universe = universe
        return universe

    def _class_surface(self, source: RunningPod) -> tuple[list, list]:
        """One source class's whole surface, as bitmask set algebra.

        Runs every decision class exactly once -- through the same decision
        memo the per-attempt path uses, so ``connect`` and surfaces share
        results -- then ORs the allowed classes' masks over the source-free
        allow mask and materializes the surviving bits in id order (the
        scan's order).  Service plans replay the reference backend loop
        against the verdict table: same first-network-accept short-circuit,
        same loopback ``same_pod`` collection, no per-class re-resolution.
        """
        universe = self.endpoint_universe()
        memo = self._decisions
        decide = self._enforcer.decide_ingress
        source_key = self._source_key(source)
        verdicts: dict[tuple, bool] = {}
        allowed = universe.free_mask
        for token, decision_class in universe.decision_classes.items():
            memo_key = (source_key, token)
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
        universe_cache: dict | None = None,
    ) -> ReachabilityMatrix:
        """Compile ``policies`` (if needed) and build a batched matrix.

        When the enforcer has the compiled engine disabled and ``policies``
        is a raw list, the matrix is built in naive mode: same API, but every
        query takes the uncached reference path (the pre-compilation code).
        """
        if not isinstance(policies, PolicyIndex) and not self.enforcer.use_index:
            return ReachabilityMatrix(
                self, None, pods, bindings, include_loopback, naive_policies=list(policies)
            )
        return ReachabilityMatrix(
            self,
            self.enforcer.index_for(policies),
            pods,
            bindings,
            include_loopback,
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
        :class:`ReachabilityMatrix`, so an enforcer with the compiled engine
        disabled answers with the per-attempt reference scan.
        """
        matrix = self.reachability_matrix(policies, pods, bindings, include_loopback)
        return matrix.endpoints_from(source)
