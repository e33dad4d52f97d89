"""Workload controllers: Deployment, StatefulSet, DaemonSet, ReplicaSet, Job, CronJob.

The paper refers to these collectively as *compute units*.  Every workload
exposes the same small interface used by the analyzer:

* :attr:`labels` -- labels of the controller object itself;
* :meth:`pod_labels` -- labels stamped on the pods it creates;
* :meth:`pod_template` -- the embedded :class:`~repro.k8s.pod.PodTemplateSpec`;
* :meth:`replica_count` -- how many pods the cluster simulator should create.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

from .errors import ValidationError
from .labels import LabelSet, Selector
from .meta import KubernetesObject, ObjectMeta
from .pod import PodTemplateSpec

#: Kinds that the analyzer treats as compute units.
COMPUTE_UNIT_KINDS = (
    "Deployment",
    "StatefulSet",
    "DaemonSet",
    "ReplicaSet",
    "Job",
    "CronJob",
    "Pod",
)


@dataclass
class Workload(KubernetesObject):
    """Common base class of all pod-owning controllers."""

    KIND: ClassVar[str] = ""
    API_VERSION: ClassVar[str] = "apps/v1"

    replicas: int = 1
    selector: Selector = field(default_factory=Selector)
    template: PodTemplateSpec = field(default_factory=PodTemplateSpec)

    # Analyzer interface --------------------------------------------------
    def pod_template(self) -> PodTemplateSpec:
        return self.template

    def pod_labels(self) -> LabelSet:
        """Labels applied to the pods created from the template."""
        return self.template.metadata.labels

    def replica_count(self) -> int:
        return max(0, int(self.replicas))

    # Validation -----------------------------------------------------------
    def validate(self) -> None:
        super().validate()
        self.template.spec.validate()
        if not self.selector.is_empty and not self.selector.matches(self.pod_labels()):
            raise ValidationError(
                f"{self.KIND} {self.name!r}: selector does not match the pod template labels",
                path="spec.selector",
            )

    # Serialization ----------------------------------------------------------
    def spec_to_dict(self) -> dict:
        spec: dict = {
            "replicas": self.replicas,
            "selector": self.selector.to_dict(),
            "template": self.template.to_dict(),
        }
        return {"spec": spec}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Workload":
        spec = data.get("spec") or {}
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            replicas=int(spec.get("replicas", 1)),
            selector=Selector.from_dict(spec.get("selector")),
            template=PodTemplateSpec.from_dict(spec.get("template")),
        )


@dataclass
class Deployment(Workload):
    KIND: ClassVar[str] = "Deployment"


@dataclass
class ReplicaSet(Workload):
    KIND: ClassVar[str] = "ReplicaSet"


@dataclass
class StatefulSet(Workload):
    """StatefulSet additionally names a headless governing service."""

    KIND: ClassVar[str] = "StatefulSet"

    service_name: str = ""

    def spec_to_dict(self) -> dict:
        data = super().spec_to_dict()
        if self.service_name:
            data["spec"]["serviceName"] = self.service_name
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "StatefulSet":
        spec = data.get("spec") or {}
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            replicas=int(spec.get("replicas", 1)),
            selector=Selector.from_dict(spec.get("selector")),
            template=PodTemplateSpec.from_dict(spec.get("template")),
            service_name=spec.get("serviceName", ""),
        )


@dataclass
class DaemonSet(Workload):
    """DaemonSets run one pod per node; ``replicas`` is ignored by Kubernetes
    but kept here so the simulator can size clusters deterministically."""

    KIND: ClassVar[str] = "DaemonSet"

    def spec_to_dict(self) -> dict:
        data = super().spec_to_dict()
        data["spec"].pop("replicas", None)
        return data

    def replica_count(self) -> int:
        # The cluster simulator expands DaemonSets to one pod per worker node;
        # a single replica is used when analysed outside a cluster context.
        return max(1, int(self.replicas))


@dataclass
class Job(Workload):
    KIND: ClassVar[str] = "Job"
    API_VERSION: ClassVar[str] = "batch/v1"

    def validate(self) -> None:
        # Jobs may omit the selector entirely; Kubernetes generates one.
        KubernetesObject.validate(self)
        self.template.spec.validate()


@dataclass
class CronJob(Workload):
    KIND: ClassVar[str] = "CronJob"
    API_VERSION: ClassVar[str] = "batch/v1"

    schedule: str = "0 * * * *"

    def validate(self) -> None:
        KubernetesObject.validate(self)
        self.template.spec.validate()

    def spec_to_dict(self) -> dict:
        return {
            "spec": {
                "schedule": self.schedule,
                "jobTemplate": {
                    "spec": {
                        "template": self.template.to_dict(),
                    }
                },
            }
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CronJob":
        spec = data.get("spec") or {}
        job_spec = ((spec.get("jobTemplate") or {}).get("spec")) or {}
        return cls(
            metadata=ObjectMeta.from_dict(data.get("metadata")),
            replicas=1,
            selector=Selector(),
            template=PodTemplateSpec.from_dict(job_spec.get("template")),
            schedule=spec.get("schedule", "0 * * * *"),
        )


def is_compute_unit_kind(kind: str) -> bool:
    """Return ``True`` for kinds the analyzer treats as compute units."""
    return kind in COMPUTE_UNIT_KINDS
