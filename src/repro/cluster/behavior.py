"""Runtime behaviour models for simulated containers.

The misconfigurations the paper studies arise from the *difference* between
what a chart declares and what the application actually does at runtime.
The cluster simulator therefore needs a description of each container
image's real behaviour: which ports it listens on, whether it also opens
ephemeral (dynamic) ports, and on which interface.

Behaviours are registered per image name in a :class:`BehaviorRegistry`.
Unregistered images fall back to the *faithful* behaviour -- listening on
exactly the ports declared in the pod spec -- which is the behaviour a
correctly packaged application would exhibit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from ..k8s import Container

#: Sentinel interface values for listening sockets.
ALL_INTERFACES = "0.0.0.0"
LOOPBACK = "127.0.0.1"


@dataclass(frozen=True)
class ListenSpec:
    """One socket the application opens when it starts.

    ``port`` of ``None`` requests a dynamic (ephemeral) port: the container
    runtime allocates a fresh number from the OS range on every start, which
    is exactly the behaviour behind misconfiguration M2.
    """

    port: int | None
    protocol: str = "TCP"
    interface: str = ALL_INTERFACES
    process: str = ""

    @property
    def is_dynamic(self) -> bool:
        return self.port is None


@dataclass
class ContainerBehavior:
    """The complete runtime behaviour of one container image.

    ``listen_on_declared`` makes the container open every declared
    ``containerPort`` (the faithful default); ``extra_listens`` adds sockets
    beyond the declaration (undeclared ports, dynamic ports, loopback-only
    control sockets); ``ignore_declared_ports`` lists declared ports the
    application does *not* actually open (the M3 scenario, e.g. optional
    features that are disabled at runtime).
    """

    image: str = ""
    listen_on_declared: bool = True
    extra_listens: list[ListenSpec] = field(default_factory=list)
    ignore_declared_ports: set[int] = field(default_factory=set)
    #: Environment variable that, when set on the container, pins otherwise
    #: dynamic ports to its integer value (the paper's M2 mitigation).
    static_port_env: str = ""

    def effective_listens(self, container: Container) -> list[ListenSpec]:
        """Compute the sockets this container opens given its declaration."""
        listens: list[ListenSpec] = []
        if self.listen_on_declared:
            for declared in container.ports:
                if declared.container_port in self.ignore_declared_ports:
                    continue
                listens.append(
                    ListenSpec(
                        port=declared.container_port,
                        protocol=declared.protocol,
                        process=container.name,
                    )
                )
        pinned = container.env_value(self.static_port_env) if self.static_port_env else ""
        for extra in self.extra_listens:
            if extra.is_dynamic and pinned.isdigit():
                listens.append(
                    ListenSpec(
                        port=int(pinned),
                        protocol=extra.protocol,
                        interface=extra.interface,
                        process=extra.process or container.name,
                    )
                )
            else:
                listens.append(extra)
        return listens

    def dynamic_listen_count(self) -> int:
        return sum(1 for listen in self.extra_listens if listen.is_dynamic)


class BehaviorRegistry:
    """Maps container image names to their runtime behaviour."""

    def __init__(self) -> None:
        self._behaviors: dict[str, ContainerBehavior] = {}
        self._fingerprint: str | None = None

    def register(self, image: str, behavior: ContainerBehavior) -> None:
        behavior.image = image
        self._behaviors[image] = behavior
        self._fingerprint = None

    def lookup(self, image: str) -> ContainerBehavior:
        """Behaviour for ``image``; unregistered images behave faithfully."""
        behavior = self._behaviors.get(image)
        if behavior is not None:
            return behavior
        return ContainerBehavior(image=image, listen_on_declared=True)

    def images(self) -> list[str]:
        return sorted(self._behaviors)

    def merged_with(self, other: "BehaviorRegistry") -> "BehaviorRegistry":
        merged = BehaviorRegistry()
        merged._behaviors.update(self._behaviors)
        merged._behaviors.update(other._behaviors)
        return merged

    def fingerprint(self) -> str:
        """Content fingerprint (sha256 hex) over every registered behaviour.

        Observations are deterministic in the registry content, so this is
        one of the inputs to the content-keyed observation memo
        (:class:`repro.cluster.session.ObservationMemo`).  Images are
        sorted; ``extra_listens`` keeps registration order because the
        simulator draws dynamic ports in that order.  Cached until the next
        ``register`` -- the delta classifier re-reads it every watch round
        (behaviours must be registered, never mutated in place, for the
        cache and the observation memo alike to stay sound).
        """
        if self._fingerprint is not None:
            return self._fingerprint
        parts = []
        for image in sorted(self._behaviors):
            behavior = self._behaviors[image]
            parts.append(
                (
                    image,
                    behavior.listen_on_declared,
                    tuple(
                        (listen.port, listen.protocol, listen.interface, listen.process)
                        for listen in behavior.extra_listens
                    ),
                    tuple(sorted(behavior.ignore_declared_ports)),
                    behavior.static_port_env,
                )
            )
        self._fingerprint = hashlib.sha256(
            repr(tuple(parts)).encode("utf-8")
        ).hexdigest()
        return self._fingerprint

    def __contains__(self, image: str) -> bool:
        return image in self._behaviors

    def __len__(self) -> int:
        return len(self._behaviors)


def faithful_behavior() -> ContainerBehavior:
    """Behaviour of a correctly packaged application (declares == listens)."""
    return ContainerBehavior(listen_on_declared=True)


def behavior_with_undeclared_ports(ports: Iterable[int], protocol: str = "TCP") -> ContainerBehavior:
    """Behaviour that opens extra, undeclared ports (produces M1)."""
    return ContainerBehavior(
        listen_on_declared=True,
        extra_listens=[ListenSpec(port=port, protocol=protocol) for port in ports],
    )


def behavior_with_dynamic_ports(count: int = 1, protocol: str = "TCP") -> ContainerBehavior:
    """Behaviour that opens ``count`` ephemeral ports (produces M2)."""
    return ContainerBehavior(
        listen_on_declared=True,
        extra_listens=[ListenSpec(port=None, protocol=protocol) for _ in range(count)],
    )


def behavior_with_closed_ports(ports: Iterable[int]) -> ContainerBehavior:
    """Behaviour that skips some declared ports (produces M3)."""
    return ContainerBehavior(listen_on_declared=True, ignore_declared_ports=set(ports))
