"""Cluster simulator substrate.

An in-process stand-in for the Minikube cluster used in the paper's
evaluation: API server with admission chain, scheduler, container runtime
with socket behaviours (including ephemeral ports and hostNetwork), endpoint
controller, cluster DNS, and NetworkPolicy enforcement.
"""

from .apiserver import AdmissionController, APIServer, ObjectStore
from .behavior import (
    ALL_INTERFACES,
    LOOPBACK,
    BehaviorRegistry,
    ContainerBehavior,
    ListenSpec,
    behavior_with_closed_ports,
    behavior_with_dynamic_ports,
    behavior_with_undeclared_ports,
    faithful_behavior,
)
from .cluster import Cluster, InstalledApplication, build_node_set, expand_workload_pods
from .cni import NetworkPolicyEnforcer, PolicyDecision
from .dns import ClusterDNS, DNSRecord
from .endpoints import EndpointController, ServiceBinding
from .errors import (
    AdmissionError,
    AlreadyExistsError,
    ClusterError,
    DuplicatePodError,
    IPAMError,
    NotFoundError,
    PodNotFound,
    SchedulingError,
    actionable_message,
)
from .ipam import AddressPool, ClusterIPAM
from .network import ClusterNetwork, ConnectionAttempt, ReachabilityMatrix, ReachableEndpoint
from .node import CONTROL_PLANE_PROCESSES, DEFAULT_HOST_PROCESSES, HostProcess, Node
from .policy_index import PolicyIndex
from .runtime import ContainerRuntime, RunningPod, Socket
from .scheduler import Scheduler

# Imported last: session pulls in repro.probe, which imports back into this
# package and needs the names above to be bound already.
from .session import (  # noqa: E402
    OBSERVE_FAST,
    OBSERVE_FULL,
    OBSERVE_MODES,
    AnalysisSession,
    ObservationSubstrate,
    SessionStats,
    SubstrateDeployment,
)

__all__ = [
    "ALL_INTERFACES",
    "APIServer",
    "AddressPool",
    "AdmissionController",
    "AdmissionError",
    "AlreadyExistsError",
    "AnalysisSession",
    "BehaviorRegistry",
    "CONTROL_PLANE_PROCESSES",
    "Cluster",
    "ClusterDNS",
    "ClusterError",
    "DuplicatePodError",
    "ClusterIPAM",
    "ClusterNetwork",
    "ConnectionAttempt",
    "ContainerBehavior",
    "ContainerRuntime",
    "DEFAULT_HOST_PROCESSES",
    "DNSRecord",
    "EndpointController",
    "HostProcess",
    "IPAMError",
    "InstalledApplication",
    "LOOPBACK",
    "ListenSpec",
    "NetworkPolicyEnforcer",
    "Node",
    "NotFoundError",
    "OBSERVE_FAST",
    "OBSERVE_FULL",
    "OBSERVE_MODES",
    "ObjectStore",
    "ObservationSubstrate",
    "PodNotFound",
    "PolicyDecision",
    "PolicyIndex",
    "ReachabilityMatrix",
    "ReachableEndpoint",
    "RunningPod",
    "SchedulingError",
    "Scheduler",
    "ServiceBinding",
    "SessionStats",
    "SubstrateDeployment",
    "Socket",
    "actionable_message",
    "behavior_with_closed_ports",
    "behavior_with_dynamic_ports",
    "behavior_with_undeclared_ports",
    "build_node_set",
    "expand_workload_pods",
    "faithful_behavior",
]
