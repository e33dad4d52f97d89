"""The runtime scanner: snapshots, double snapshots and host-port filtering.

Implements the two special cases described in Section 4.2.2 of the paper:

* **Dynamic ports (M2)** are not captured by a single snapshot; the scanner
  therefore restarts the application and compares two snapshots, flagging
  ports that changed between runs as dynamic.
* **Host network (M7)** pods see every port open on the node, including
  processes unrelated to the application; the scanner takes a preliminary
  baseline of host ports and removes them from those pods' observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import Cluster
from .snapshot import ClusterSnapshot, PodSnapshot, SocketRecord


@dataclass
class RuntimeObservation:
    """The consolidated runtime view of one application, ready for analysis."""

    app: str
    first: ClusterSnapshot
    second: ClusterSnapshot
    host_ports: set[int] = field(default_factory=set)

    def pods(self) -> list[PodSnapshot]:
        return self.first.for_app(self.app) if self.app else list(self.first.pods)

    def stable_open_ports(self, snapshot: PodSnapshot, protocol: str = "TCP") -> set[int]:
        """Ports open in both snapshots for the pod (dynamic ports excluded)."""
        other = self.second.pod(snapshot.pod_name, snapshot.namespace)
        ports = snapshot.open_ports(protocol)
        if other is not None:
            ports = ports & other.open_ports(protocol)
        if snapshot.host_network:
            ports = ports - self.host_ports
        return ports

    def dynamic_ports(self, snapshot: PodSnapshot, protocol: str = "TCP") -> set[int]:
        """Ports that differ between the two snapshots (the M2 signal)."""
        other = self.second.pod(snapshot.pod_name, snapshot.namespace)
        if other is None:
            return set()
        first_ports = snapshot.open_ports(protocol)
        second_ports = other.open_ports(protocol)
        if snapshot.host_network:
            first_ports = first_ports - self.host_ports
            second_ports = second_ports - self.host_ports
        return first_ports.symmetric_difference(second_ports)

    def has_dynamic_ports(self, snapshot: PodSnapshot, protocol: str = "TCP") -> bool:
        return bool(self.dynamic_ports(snapshot, protocol))

    def observed_sockets(self, snapshot: PodSnapshot) -> list[SocketRecord]:
        """Sockets of the first snapshot minus host baseline for hostNetwork pods."""
        if not snapshot.host_network:
            return list(snapshot.sockets)
        return [record for record in snapshot.sockets if record.port not in self.host_ports]


class RuntimeScanner:
    """Produces runtime observations from a simulated cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def snapshot(
        self,
        app: str | None = None,
        sequence: int = 0,
        host_ports: set[int] | None = None,
    ) -> ClusterSnapshot:
        """Take a single netstat-style snapshot of the running pods.

        ``host_ports`` lets callers that take several snapshots (the double
        snapshot) reuse one host-port baseline instead of re-walking every
        node per snapshot.
        """
        pods = self.cluster.running_pods(app_name=app)
        if host_ports is None:
            host_ports = self.cluster.host_port_baseline()
        return ClusterSnapshot.from_pods(pods, host_ports=host_ports, sequence=sequence)

    def observe(self, app: str, restart_between_snapshots: bool = True) -> RuntimeObservation:
        """Take the double snapshot of one application.

        ``restart_between_snapshots=False`` degrades to a single-snapshot
        observation (used by the ablation benchmark to show why the double
        snapshot is needed for M2).
        """
        host_ports = self.cluster.host_port_baseline()
        first = self.snapshot(app, sequence=0, host_ports=host_ports)
        if restart_between_snapshots:
            self.cluster.restart_application(app)
            second = self.snapshot(app, sequence=1, host_ports=host_ports)
        else:
            second = first
        return RuntimeObservation(app=app, first=first, second=second, host_ports=host_ports)
