"""NetworkPolicy resources and their evaluation semantics.

The model follows the Kubernetes semantics relevant to the paper:

* a policy *selects* pods via ``spec.podSelector`` (empty selector = all pods
  in the namespace);
* once a pod is selected by at least one policy with an ``Ingress`` policy
  type, only traffic matching some ingress rule of some selecting policy is
  allowed (default-deny for the selected direction);
* pods not selected by any policy accept all traffic (the Kubernetes
  default "allow all" that motivates M6);
* ``hostNetwork`` pods escape policy enforcement entirely (M7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from .container import validate_port_number
from .errors import ValidationError
from .labels import Selector
from .meta import KubernetesObject, ObjectMeta, Sealable

POLICY_TYPES = ("Ingress", "Egress")


@dataclass(frozen=True)
class NetworkPolicyPort:
    """A port (or port range) allowed by a policy rule."""

    port: int | str | None = None
    end_port: int | None = None
    protocol: str = "TCP"

    def __post_init__(self) -> None:
        if isinstance(self.port, int):
            validate_port_number(self.port, "policy port")
        if self.end_port is not None:
            validate_port_number(self.end_port, "endPort")
            if not isinstance(self.port, int) or self.end_port < self.port:
                raise ValidationError("endPort requires a numeric port lower than endPort")

    def matches(self, port: int, protocol: str = "TCP", named_ports: Mapping[str, int] | None = None) -> bool:
        """Return ``True`` when a concrete ``port/protocol`` is allowed."""
        if protocol != self.protocol:
            return False
        if self.port is None:
            return True
        target = self.port
        if isinstance(target, str):
            target = (named_ports or {}).get(target)
            if target is None:
                return False
        if self.end_port is not None:
            return target <= port <= self.end_port
        return port == target

    def to_dict(self) -> dict:
        data: dict = {}
        if self.port is not None:
            data["port"] = self.port
        if self.end_port is not None:
            data["endPort"] = self.end_port
        if self.protocol != "TCP":
            data["protocol"] = self.protocol
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "NetworkPolicyPort":
        port = data.get("port")
        if isinstance(port, str) and port.isdigit():
            port = int(port)
        return cls(
            port=port,
            end_port=int(data["endPort"]) if data.get("endPort") is not None else None,
            protocol=data.get("protocol", "TCP"),
        )


@dataclass(frozen=True)
class NetworkPolicyPeer:
    """A traffic source/destination in a policy rule."""

    pod_selector: Selector | None = None
    namespace_selector: Selector | None = None
    ip_block: str = ""

    def matches_pod(
        self,
        pod_labels: Mapping[str, str],
        pod_namespace: str,
        policy_namespace: str,
        namespace_labels: Mapping[str, str] | None = None,
    ) -> bool:
        """Evaluate whether a peer pod matches this rule entry."""
        if self.ip_block:
            # IP blocks never match in-cluster pod traffic in this model.
            return False
        if self.namespace_selector is not None:
            if not self.namespace_selector.matches(namespace_labels or {}):
                return False
            if self.pod_selector is None:
                return True
            return self.pod_selector.matches(pod_labels)
        # Without a namespace selector the peer is restricted to the policy's
        # own namespace.
        if pod_namespace != policy_namespace:
            return False
        if self.pod_selector is None:
            return True
        return self.pod_selector.matches(pod_labels)

    def to_dict(self) -> dict:
        data: dict = {}
        if self.pod_selector is not None:
            data["podSelector"] = self.pod_selector.to_dict()
        if self.namespace_selector is not None:
            data["namespaceSelector"] = self.namespace_selector.to_dict()
        if self.ip_block:
            data["ipBlock"] = {"cidr": self.ip_block}
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "NetworkPolicyPeer":
        return cls(
            pod_selector=Selector.from_dict(data["podSelector"]) if "podSelector" in data else None,
            namespace_selector=(
                Selector.from_dict(data["namespaceSelector"])
                if "namespaceSelector" in data
                else None
            ),
            ip_block=((data.get("ipBlock") or {}).get("cidr", "")),
        )


@dataclass
class NetworkPolicyRule(Sealable):
    """One ingress or egress rule: a set of peers and a set of ports.

    Empty ``peers`` means *all peers*; empty ``ports`` means *all ports*.
    """

    peers: list[NetworkPolicyPeer] = field(default_factory=list)
    ports: list[NetworkPolicyPort] = field(default_factory=list)

    def allows(
        self,
        peer_labels: Mapping[str, str],
        peer_namespace: str,
        policy_namespace: str,
        port: int,
        protocol: str = "TCP",
        named_ports: Mapping[str, int] | None = None,
        namespace_labels: Mapping[str, str] | None = None,
    ) -> bool:
        peer_ok = not self.peers or any(
            peer.matches_pod(peer_labels, peer_namespace, policy_namespace, namespace_labels)
            for peer in self.peers
        )
        if not peer_ok:
            return False
        return not self.ports or any(
            rule_port.matches(port, protocol, named_ports) for rule_port in self.ports
        )

    def to_dict(self, direction: str = "ingress") -> dict:
        key = "from" if direction == "ingress" else "to"
        data: dict = {}
        if self.peers:
            data[key] = [peer.to_dict() for peer in self.peers]
        if self.ports:
            data["ports"] = [port.to_dict() for port in self.ports]
        return data

    @classmethod
    def from_dict(cls, data: Mapping, direction: str = "ingress") -> "NetworkPolicyRule":
        key = "from" if direction == "ingress" else "to"
        return cls(
            peers=[NetworkPolicyPeer.from_dict(entry) for entry in data.get(key) or ()],
            ports=[NetworkPolicyPort.from_dict(entry) for entry in data.get("ports") or ()],
        )


@dataclass
class NetworkPolicy(KubernetesObject):
    """A ``networking.k8s.io/v1`` NetworkPolicy."""

    KIND: ClassVar[str] = "NetworkPolicy"
    API_VERSION: ClassVar[str] = "networking.k8s.io/v1"

    pod_selector: Selector = field(default_factory=Selector)
    policy_types: list[str] = field(default_factory=lambda: ["Ingress"])
    ingress: list[NetworkPolicyRule] = field(default_factory=list)
    egress: list[NetworkPolicyRule] = field(default_factory=list)

    def selects(self, pod_labels: Mapping[str, str], pod_namespace: str) -> bool:
        """Whether the policy applies to a pod (namespace + selector match)."""
        if pod_namespace != self.namespace:
            return False
        return self.pod_selector.matches(pod_labels)

    def selection_match_items(self) -> frozenset[tuple[str, str]] | None:
        """Hashable equality key of ``spec.podSelector`` (``None`` = general).

        A frozenset of ``(key, value)`` pairs when the selector uses only
        ``matchLabels`` (the empty frozenset therefore means "every pod in the
        namespace"); ``None`` when ``matchExpressions`` force a full
        :meth:`Selector.matches` evaluation.  Consumed by the compiled policy
        index to turn per-connection selector scans into subset tests.
        """
        return self.pod_selector.as_match_items()

    def restricts_ingress(self) -> bool:
        return "Ingress" in self.policy_types

    def allows_ingress(
        self,
        peer_labels: Mapping[str, str],
        peer_namespace: str,
        port: int,
        protocol: str = "TCP",
        named_ports: Mapping[str, int] | None = None,
        namespace_labels: Mapping[str, str] | None = None,
    ) -> bool:
        """Whether *some* ingress rule of this policy allows the connection."""
        return any(
            rule.allows(
                peer_labels,
                peer_namespace,
                self.namespace,
                port,
                protocol,
                named_ports,
                namespace_labels,
            )
            for rule in self.ingress
        )

    def validate(self) -> None:
        super().validate()
        for policy_type in self.policy_types:
            if policy_type not in POLICY_TYPES:
                raise ValidationError(f"invalid policyType: {policy_type!r}", path="spec.policyTypes")

    def spec_to_dict(self) -> dict:
        spec: dict = {
            "podSelector": self.pod_selector.to_dict(),
            "policyTypes": list(self.policy_types),
        }
        if self.ingress:
            spec["ingress"] = [rule.to_dict("ingress") for rule in self.ingress]
        if self.egress:
            spec["egress"] = [rule.to_dict("egress") for rule in self.egress]
        return {"spec": spec}

    @classmethod
    def from_dict(cls, data: Mapping) -> "NetworkPolicy":
        spec = data.get("spec") or {}
        policy_types = list(spec.get("policyTypes") or [])
        if not policy_types:
            policy_types = ["Ingress"]
            if spec.get("egress"):
                policy_types.append("Egress")
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            pod_selector=Selector.from_dict(spec.get("podSelector")),
            policy_types=policy_types,
            ingress=[
                NetworkPolicyRule.from_dict(entry, "ingress") for entry in spec.get("ingress") or ()
            ],
            egress=[
                NetworkPolicyRule.from_dict(entry, "egress") for entry in spec.get("egress") or ()
            ],
        )


def deny_all_policy(name: str, namespace: str = "default") -> NetworkPolicy:
    """Build the canonical default-deny ingress policy for a namespace."""
    return NetworkPolicy(
        metadata=ObjectMeta(name=name, namespace=namespace),
        pod_selector=Selector(),
        policy_types=["Ingress"],
        ingress=[],
    )


def allow_ports_policy(
    name: str,
    selector: Selector,
    ports: list[int],
    namespace: str = "default",
    peer_selector: Selector | None = None,
) -> NetworkPolicy:
    """Build a policy that allows ingress to ``ports`` of the selected pods."""
    rule = NetworkPolicyRule(
        peers=[NetworkPolicyPeer(pod_selector=peer_selector)] if peer_selector else [],
        ports=[NetworkPolicyPort(port=port) for port in ports],
    )
    return NetworkPolicy(
        metadata=ObjectMeta(name=name, namespace=namespace),
        pod_selector=selector,
        policy_types=["Ingress"],
        ingress=[rule],
    )
