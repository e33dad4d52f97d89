"""Reachability probing: which misconfigured endpoints stay reachable.

Reproduces the Section 4.3.2 analysis (Figure 4b): after enabling the
network policies shipped with a chart, how many misconfigured pods and
services can still be reached from an attacker-controlled pod in the same
cluster?  A probe runs on a :class:`~repro.cluster.Cluster` (the attacker
is installed on first use) or on a
:class:`~repro.cluster.session.SubstrateDeployment`, which starts the
attacker itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster import Cluster, ClusterError, PodNotFound, RunningPod
from ..k8s import Container, LabelSet, ObjectMeta, Pod, PodSpec

if TYPE_CHECKING:
    from ..cluster.session import SubstrateDeployment


@dataclass
class ReachabilityReport:
    """Reachability of one application's endpoints from an attacker pod."""

    app: str
    reachable_pod_endpoints: list[tuple[str, int]] = field(default_factory=list)
    reachable_service_endpoints: list[tuple[str, int]] = field(default_factory=list)
    reachable_dynamic_endpoints: list[tuple[str, int]] = field(default_factory=list)
    isolated_pods: int = 0
    unprotected_pods: int = 0

    @property
    def reachable_pods(self) -> set[str]:
        """Names of the pods with at least one reachable endpoint."""
        return {name for name, _ in self.reachable_pod_endpoints}

    @property
    def reachable_services(self) -> set[str]:
        """Names of the services with at least one reachable port."""
        return {name for name, _ in self.reachable_service_endpoints}

    @property
    def pods_with_dynamic_ports(self) -> set[str]:
        """Names of the pods reachable on a dynamic (ephemeral) port."""
        return {name for name, _ in self.reachable_dynamic_endpoints}

    @property
    def affected(self) -> bool:
        """An application is *affected* when some endpoint remains reachable."""
        return bool(self.reachable_pod_endpoints or self.reachable_service_endpoints)


ATTACKER_POD_NAME = "attacker"
#: The application the attacker pod is installed as.
ATTACKER_APP = "__attacker__"


def make_attacker_pod(namespace: str = "default") -> Pod:
    """The attacker-controlled pod of the threat model (Section 3.1)."""
    return Pod(
        metadata=ObjectMeta(
            name=ATTACKER_POD_NAME,
            namespace=namespace,
            labels=LabelSet({"app.kubernetes.io/name": "attacker"}),
        ),
        spec=PodSpec(containers=[Container(name="shell", image="probe/attacker")]),
    )


class ReachabilityProbe:
    """Measures the lateral-movement surface of installed applications."""

    def __init__(self, cluster: Cluster | SubstrateDeployment) -> None:
        self.cluster = cluster

    def ensure_attacker(self, namespace: str = "default") -> RunningPod:
        """Install the attacker pod (idempotent) and return its running instance.

        A deployment already runs the attacker in ``default``; asked for one
        elsewhere, it raises :class:`~repro.cluster.ClusterError`.
        """
        try:
            return self.cluster.running_pod(ATTACKER_POD_NAME, namespace)
        except PodNotFound:
            if not isinstance(self.cluster, Cluster):
                raise ClusterError(
                    f"a deployment runs the attacker in 'default' only, not in {namespace!r}"
                ) from None
            self.cluster.install([make_attacker_pod(namespace)], app_name=ATTACKER_APP,
                                 namespace=namespace)
            return self.cluster.running_pod(ATTACKER_POD_NAME, namespace)

    def probe_application(self, app: str, namespace: str = "default") -> ReachabilityReport:
        """Probe every endpoint of one installed application from the attacker.

        Runs on the cluster's cached :class:`ReachabilityMatrix` machinery:
        the policy index is compiled once per epoch and every decision is
        memoized by equivalence class, so probing replicas or many sockets of
        the same destination does no repeated policy work.
        """
        attacker = self.ensure_attacker(namespace)
        index = self.cluster.policies_view()
        report = ReachabilityReport(app=app)
        app_pods = self.cluster.running_pods(app_name=app)
        isolated, unprotected = self.cluster.enforcer.partition_pods(index, app_pods)
        report.isolated_pods = len(isolated)
        report.unprotected_pods = len(unprotected)
        bindings = self.cluster.service_bindings()
        matrix = self.cluster.network.reachability_matrix(index, app_pods, bindings)
        for destination in app_pods:
            for socket in destination.sockets:
                if not socket.reachable_from_network:
                    continue
                attempt = matrix.connect(attacker, destination, socket.port, socket.protocol)
                if attempt.success:
                    report.reachable_pod_endpoints.append((destination.name, socket.port))
                    if socket.dynamic:
                        report.reachable_dynamic_endpoints.append((destination.name, socket.port))
        for binding in bindings:
            if not any(backend.app == app for backend in binding.backends):
                continue
            for service_port in binding.service.ports:
                attempt = matrix.connect_via_service(
                    attacker, binding, service_port.port, service_port.protocol
                )
                if attempt.success:
                    report.reachable_service_endpoints.append(
                        (binding.service.name, service_port.port)
                    )
        return report
