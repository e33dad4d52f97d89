"""Container runtime simulation: running pods and their sockets.

The runtime turns a pod specification plus the registered behaviour of its
container images into a set of *listening sockets*.  Dynamic ports are drawn
from the OS ephemeral range with a deterministic RNG seeded per cluster, and
change on every container (re)start -- reproducing the double-snapshot
detection strategy of Section 4.2.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..k8s import EPHEMERAL_PORT_RANGE, Pod
from .behavior import ALL_INTERFACES, BehaviorRegistry, ListenSpec
from .node import Node


@dataclass(frozen=True)
class Socket:
    """A listening socket inside a pod (or on the host for hostNetwork pods)."""

    port: int
    protocol: str = "TCP"
    interface: str = ALL_INTERFACES
    container: str = ""
    process: str = ""
    dynamic: bool = False

    @property
    def reachable_from_network(self) -> bool:
        """Loopback-only sockets are unreachable from other pods."""
        return self.interface != "127.0.0.1"


@dataclass
class RunningPod:
    """A pod that has been scheduled and started."""

    pod: Pod
    ip: str
    node: Node
    sockets: list[Socket] = field(default_factory=list)
    restart_count: int = 0
    #: Release / application this pod belongs to (set by the cluster facade).
    app: str = ""
    #: Qualified name of the owning compute unit (e.g. ``Deployment/default/web``).
    owner: str = ""
    #: Lazily built named-port map (the pod spec never changes after start).
    _named_ports_cache: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Socket lookup table, keyed by the identity of the socket list so a
    #: restart (which installs a fresh list) invalidates it automatically.
    _socket_cache: tuple[list[Socket], dict[tuple[int, str], Socket]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily built ``(namespace, name)`` identity tuple and frozen label
    #: items; both are fixed once the pod is running, like the spec, and are
    #: the memo keys of every connectivity-engine cache.
    _ident_cache: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _label_items_cache: frozenset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.pod.name

    @property
    def namespace(self) -> str:
        return self.pod.namespace

    @property
    def ident(self) -> tuple[str, str]:
        """The pod's ``(namespace, name)`` identity (memoized)."""
        ident = self._ident_cache
        if ident is None:
            ident = (self.pod.namespace, self.pod.name)
            self._ident_cache = ident
        return ident

    def label_items(self) -> frozenset:
        """The pod's labels as a frozen item set (memoized).

        Shared by the policy index and reachability matrix as the
        equivalence-class component of their memo keys; treat as read-only.
        """
        items = self._label_items_cache
        if items is None:
            items = frozenset(self.pod.labels.items())
            self._label_items_cache = items
        return items

    @property
    def labels(self):
        return self.pod.labels

    @property
    def host_network(self) -> bool:
        return self.pod.spec.host_network

    def listening_ports(self, protocol: str | None = None, include_loopback: bool = True) -> set[int]:
        return {
            socket.port
            for socket in self.sockets
            if (protocol is None or socket.protocol == protocol)
            and (include_loopback or socket.reachable_from_network)
        }

    def declared_ports(self, protocol: str | None = None) -> set[int]:
        return self.pod.spec.declared_port_numbers(protocol)

    def named_ports(self) -> dict[str, int]:
        """Named container ports, used to resolve named targets in policies.

        The result is memoized (the spec is fixed once the pod is running) and
        shared between callers; treat it as read-only.
        """
        named = self._named_ports_cache
        if named is None:
            named = {}
            for container in self.pod.spec.containers:
                for port in container.ports:
                    if port.name:
                        named[port.name] = port.container_port
            self._named_ports_cache = named
        return named

    def socket_on(self, port: int, protocol: str = "TCP") -> Socket | None:
        cache = self._socket_cache
        if cache is None or cache[0] is not self.sockets:
            table: dict[tuple[int, str], Socket] = {}
            for socket in self.sockets:
                table.setdefault((socket.port, socket.protocol), socket)
            cache = (self.sockets, table)
            self._socket_cache = cache
        return cache[1].get((port, protocol))


class ContainerRuntime:
    """Creates and restarts the sockets of running pods."""

    def __init__(self, behaviors: BehaviorRegistry | None = None, seed: int = 2025) -> None:
        self.behaviors = behaviors or BehaviorRegistry()
        self._rng = random.Random(seed)
        self._used_ephemeral: dict[str, set[int]] = {}

    def reset(self, behaviors: BehaviorRegistry | None = None, seed: int = 2025) -> None:
        """Re-seed the runtime: the ephemeral-port sequence replays exactly
        as a freshly constructed runtime's would."""
        if behaviors is not None:
            self.behaviors = behaviors
        self._rng.seed(seed)
        self._used_ephemeral.clear()

    # Pod lifecycle -----------------------------------------------------------
    def start_pod(self, pod: Pod, ip: str, node: Node, app: str = "", owner: str = "") -> RunningPod:
        """Start every container of ``pod`` and return the running instance."""
        running = RunningPod(pod=pod, ip=ip, node=node, app=app, owner=owner)
        running.sockets = self._open_sockets(running)
        return running

    def restart_pod(self, running: RunningPod) -> RunningPod:
        """Restart a pod: static sockets stay, dynamic ports are re-allocated."""
        running.restart_count += 1
        self._used_ephemeral.pop(self._pod_key(running), None)
        running.sockets = self._open_sockets(running)
        return running

    def drew_ephemeral(self, running: RunningPod) -> bool:
        """Whether this pod's last (re)start drew any ephemeral port.

        Exact even when the drawn socket was later deduplicated away by a
        same-port static socket: the draw itself (which advances the shared
        RNG) is what is recorded.  The fast observation path keys its
        skip-restart decision on this, keeping RNG parity with a real
        restart of every pod.
        """
        return bool(self._used_ephemeral.get(self._pod_key(running)))

    # Socket derivation ----------------------------------------------------------
    def _open_sockets(self, running: RunningPod) -> list[Socket]:
        sockets: list[Socket] = []
        if running.host_network:
            # The pod shares the node's network namespace: every host socket
            # is visible inside the pod and vice versa.
            sockets.extend(
                self._socket_from_listen(listen, container="", running=running)
                for listen in running.node.host_listen_specs()
            )
        for container in running.pod.spec.containers:
            behavior = self.behaviors.lookup(container.image)
            for listen in behavior.effective_listens(container):
                sockets.append(self._socket_from_listen(listen, container.name, running))
        return self._deduplicate(sockets)

    def _socket_from_listen(self, listen: ListenSpec, container: str, running: RunningPod) -> Socket:
        if listen.is_dynamic:
            port = self._allocate_ephemeral(self._pod_key(running))
            dynamic = True
        else:
            port = int(listen.port)  # type: ignore[arg-type]
            dynamic = False
        return Socket(
            port=port,
            protocol=listen.protocol,
            interface=listen.interface,
            container=container,
            process=listen.process or container,
            dynamic=dynamic,
        )

    def _allocate_ephemeral(self, pod_key: str) -> int:
        low, high = EPHEMERAL_PORT_RANGE
        used = self._used_ephemeral.setdefault(pod_key, set())
        while True:
            port = self._rng.randint(low, high)
            if port not in used:
                used.add(port)
                return port

    @staticmethod
    def _deduplicate(sockets: list[Socket]) -> list[Socket]:
        seen: set[tuple[int, str, str]] = set()
        unique: list[Socket] = []
        for socket in sockets:
            key = (socket.port, socket.protocol, socket.interface)
            if key in seen:
                continue
            seen.add(key)
            unique.append(socket)
        return unique

    @staticmethod
    def _pod_key(running: RunningPod) -> str:
        return f"{running.namespace}/{running.name}"
