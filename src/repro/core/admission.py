"""The defense component: an admission controller for the cluster.

The paper's title promises *defending* clusters, not only auditing them.
This module turns the static rules into an admission-time guard: when an
object is applied to the (simulated) API server, the controller checks it
against the current cluster state and either warns or rejects.

Checks performed at admission time (only those that do not require runtime
observation):

* global/compute-unit label collisions with objects already in the cluster
  (M4A, M4\\*);
* services that select nothing, or that target ports the selected pods do
  not declare (M5B, M5D);
* pods binding to the host network (M7);
* optionally, workloads deployed into a namespace without any NetworkPolicy
  (M6) when ``require_network_policies`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import AdmissionError, ObjectStore
from ..k8s import (
    KubernetesObject,
    LabelSet,
    NetworkPolicy,
    Pod,
    Service,
    Workload,
)
from .findings import MisconfigClass

#: Controller modes.
MODE_WARN = "warn"
MODE_ENFORCE = "enforce"


@dataclass
class AdmissionWarning:
    """A non-blocking admission finding (mode ``warn``)."""

    misconfig_class: MisconfigClass
    obj: str
    message: str


@dataclass
class NetworkMisconfigurationAdmission:
    """Admission controller enforcing the paper's static rules."""

    mode: str = MODE_ENFORCE
    require_network_policies: bool = False
    block_host_network: bool = True
    name: str = "network-misconfiguration-admission"
    warnings: list[AdmissionWarning] = field(default_factory=list)

    # API expected by repro.cluster.APIServer ------------------------------------
    def review(self, obj: KubernetesObject, store: ObjectStore) -> None:
        """Check one incoming object against the cluster state."""
        for misconfig_class, message in self._violations(obj, store):
            if self.mode == MODE_ENFORCE:
                raise AdmissionError(f"[{misconfig_class.value}] {message}")
            self.warnings.append(
                AdmissionWarning(
                    misconfig_class=misconfig_class, obj=obj.qualified_name(), message=message
                )
            )

    # Individual checks --------------------------------------------------------------
    def _violations(self, obj: KubernetesObject, store: ObjectStore):
        if isinstance(obj, (Workload, Pod)):
            yield from self._check_compute_unit(obj, store)
        if isinstance(obj, Service):
            yield from self._check_service(obj, store)

    def _check_compute_unit(self, obj: KubernetesObject, store: ObjectStore):
        template_labels, host_network = self._pod_identity(obj)
        if host_network and self.block_host_network:
            yield (
                MisconfigClass.M7,
                f"{obj.qualified_name()} requests hostNetwork: true, which bypasses every "
                "NetworkPolicy; set hostNetwork to false or request an exemption",
            )
        if template_labels:
            for existing in store.all():
                if existing.key == obj.key or not isinstance(existing, (Workload, Pod)):
                    continue
                existing_labels, _ = self._pod_identity(existing)
                if existing_labels and existing_labels == template_labels \
                        and existing.namespace == obj.namespace:
                    yield (
                        MisconfigClass.M4_GLOBAL,
                        f"{obj.qualified_name()} uses the same pod labels {dict(template_labels)} "
                        f"as existing {existing.qualified_name()}; services selecting one will "
                        "also route traffic to the other",
                    )
                    break
        if self.require_network_policies and not self._namespace_has_policies(obj, store):
            yield (
                MisconfigClass.M6,
                f"namespace {obj.namespace!r} has no NetworkPolicy; deploying "
                f"{obj.qualified_name()} would leave it reachable from every pod in the cluster",
            )

    def _check_service(self, service: Service, store: ObjectStore):
        if not service.has_selector:
            return
        selected = []
        declared_ports: set[int] = set()
        named_ports: set[str] = set()
        for existing in store.all():
            if not isinstance(existing, (Workload, Pod)):
                continue
            labels, _ = self._pod_identity(existing)
            if existing.namespace == service.namespace and service.selector.matches(labels):
                selected.append(existing)
                spec = existing.pod_template().spec if isinstance(existing, Workload) else existing.spec
                declared_ports.update(spec.declared_port_numbers())
                for container in spec.containers:
                    named_ports.update(p.name for p in container.ports if p.name)
        if not selected:
            yield (
                MisconfigClass.M5D,
                f"service {service.qualified_name()} selects "
                f"{service.selector.match_labels.to_dict()} but no existing compute unit matches; "
                "an attacker can claim its traffic by deploying a pod with those labels",
            )
            return
        for service_port in service.ports:
            target = service_port.resolved_target()
            if isinstance(target, int) and target not in declared_ports:
                yield (
                    MisconfigClass.M5B,
                    f"service {service.qualified_name()} targets port {target}, which none of the "
                    "selected compute units declares",
                )
            elif isinstance(target, str) and target not in named_ports:
                yield (
                    MisconfigClass.M5B,
                    f"service {service.qualified_name()} targets named port {target!r}, which none "
                    "of the selected compute units declares",
                )

    # Helpers ------------------------------------------------------------------------
    @staticmethod
    def _pod_identity(obj: KubernetesObject) -> tuple[LabelSet, bool]:
        if isinstance(obj, Workload):
            return LabelSet(obj.pod_labels()), obj.pod_template().spec.host_network
        if isinstance(obj, Pod):
            return obj.labels, obj.spec.host_network
        return LabelSet(), False

    @staticmethod
    def _namespace_has_policies(obj: KubernetesObject, store: ObjectStore) -> bool:
        return any(
            isinstance(existing, NetworkPolicy) and existing.namespace == obj.namespace
            for existing in store.all()
        )

    # Reporting -----------------------------------------------------------------------
    def reset(self) -> None:
        self.warnings.clear()
