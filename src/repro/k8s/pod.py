"""Pods and pod templates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from .container import Container
from .errors import ValidationError
from .labels import LabelSet
from .meta import DEFAULT_NAMESPACE, KubernetesObject, ObjectMeta, Sealable


@dataclass
class PodSpec(Sealable):
    """The parts of a pod spec relevant to cluster-internal networking."""

    containers: list[Container] = field(default_factory=list)
    init_containers: list[Container] = field(default_factory=list)
    host_network: bool = False
    dns_policy: str = "ClusterFirst"
    service_account_name: str = ""
    node_name: str = ""

    def all_containers(self) -> list[Container]:
        """Return init containers followed by application containers."""
        return list(self.init_containers) + list(self.containers)

    def declared_port_numbers(self, protocol: str | None = None) -> set[int]:
        """Every port declared by any (non-init) container of the pod."""
        declared: set[int] = set()
        for container in self.containers:
            declared.update(container.declared_port_numbers(protocol))
        return declared

    def resolve_port_name(self, name: str) -> int | None:
        """Resolve a named container port to its number, if declared."""
        for container in self.containers:
            port = container.port_named(name)
            if port is not None:
                return port.container_port
        return None

    def validate(self) -> None:
        if not self.containers:
            raise ValidationError("a pod requires at least one container", path="spec.containers")
        names = [container.name for container in self.all_containers()]
        if len(names) != len(set(names)):
            raise ValidationError("container names within a pod must be unique")
        for container in self.all_containers():
            container.validate()

    def to_dict(self) -> dict:
        data: dict = {"containers": [container.to_dict() for container in self.containers]}
        if self.init_containers:
            data["initContainers"] = [container.to_dict() for container in self.init_containers]
        if self.host_network:
            data["hostNetwork"] = True
        if self.dns_policy != "ClusterFirst":
            data["dnsPolicy"] = self.dns_policy
        if self.service_account_name:
            data["serviceAccountName"] = self.service_account_name
        if self.node_name:
            data["nodeName"] = self.node_name
        return data

    @classmethod
    def from_dict(cls, data: Mapping | None) -> "PodSpec":
        data = data or {}
        return cls(
            containers=[Container.from_dict(entry) for entry in data.get("containers") or ()],
            init_containers=[
                Container.from_dict(entry) for entry in data.get("initContainers") or ()
            ],
            host_network=bool(data.get("hostNetwork", False)),
            dns_policy=data.get("dnsPolicy", "ClusterFirst"),
            service_account_name=data.get("serviceAccountName", ""),
            node_name=data.get("nodeName", ""),
        )


@dataclass
class PodTemplateSpec(Sealable):
    """The pod template embedded in workload controllers."""

    metadata: ObjectMeta = field(default_factory=ObjectMeta)
    spec: PodSpec = field(default_factory=PodSpec)

    @property
    def labels(self) -> LabelSet:
        return self.metadata.labels

    def to_dict(self) -> dict:
        return {"metadata": self.metadata.to_dict(), "spec": self.spec.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping | None) -> "PodTemplateSpec":
        data = data or {}
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            spec=PodSpec.from_dict(data.get("spec")),
        )


@dataclass
class Pod(KubernetesObject):
    """A single pod resource."""

    KIND: ClassVar[str] = "Pod"
    API_VERSION: ClassVar[str] = "v1"

    spec: PodSpec = field(default_factory=PodSpec)

    def validate(self) -> None:
        super().validate()
        self.spec.validate()

    def spec_to_dict(self) -> dict:
        return {"spec": self.spec.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Pod":
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            spec=PodSpec.from_dict(data.get("spec")),
        )

    @classmethod
    def from_template(
        cls,
        template: PodTemplateSpec,
        name: str,
        namespace: str = DEFAULT_NAMESPACE,
        extra_labels: Mapping[str, str] | None = None,
    ) -> "Pod":
        """Instantiate a pod from a workload's pod template."""
        labels = template.metadata.labels.merged(extra_labels or {})
        metadata = ObjectMeta(
            name=name,
            namespace=namespace,
            labels=labels,
            annotations=dict(template.metadata.annotations),
        )
        spec = PodSpec.from_dict(template.spec.to_dict())
        return cls(metadata=metadata, spec=spec)
