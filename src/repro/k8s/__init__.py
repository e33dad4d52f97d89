"""Kubernetes object model substrate.

A dependency-light, typed model of the Kubernetes resources that matter for
cluster-internal networking: compute units (pods and their controllers),
services, network policies and the supporting objects Helm charts ship with
them.  This is the foundation shared by the Helm renderer, the cluster
simulator, and the misconfiguration analyzer.
"""

from .container import (
    EPHEMERAL_PORT_RANGE,
    Container,
    ContainerPort,
    EnvVar,
    Probe,
    is_ephemeral_port,
    validate_port_number,
)
from .errors import (
    KubernetesModelError,
    ParseError,
    SelectorError,
    ValidationError,
)
from .errors import ImmutableObjectError
from .inventory import (
    ComputeUnit,
    InternTable,
    Inventory,
    LabelSurface,
    clear_intern_table,
    intern_object,
    intern_stats,
)
from .labels import (
    LabelSelectorRequirement,
    LabelSet,
    Selector,
    equality_selector,
    find_duplicate_label_sets,
    parse_selector,
    selectors_overlap,
)
from .meta import DEFAULT_NAMESPACE, KubernetesObject, ObjectMeta, Sealable
from .misc import (
    ClusterRole,
    ClusterRoleBinding,
    ConfigMap,
    GenericObject,
    Ingress,
    IngressRule,
    Namespace,
    Role,
    RoleBinding,
    Secret,
    ServiceAccount,
    make_namespace,
)
from .networkpolicy import (
    NetworkPolicy,
    NetworkPolicyPeer,
    NetworkPolicyPort,
    NetworkPolicyRule,
    allow_ports_policy,
    deny_all_policy,
)
from .pod import Pod, PodSpec, PodTemplateSpec
from .registry import dump_yaml, known_kinds, load_yaml, object_from_dict, objects_from_dicts
from .service import EndpointAddress, Endpoints, Service, ServicePort
from .yamlio import yaml_dump, yaml_dump_all, yaml_load, yaml_load_all
from .workloads import (
    COMPUTE_UNIT_KINDS,
    CronJob,
    DaemonSet,
    Deployment,
    Job,
    ReplicaSet,
    StatefulSet,
    Workload,
    is_compute_unit_kind,
)

__all__ = [
    "COMPUTE_UNIT_KINDS",
    "DEFAULT_NAMESPACE",
    "EPHEMERAL_PORT_RANGE",
    "ClusterRole",
    "ClusterRoleBinding",
    "ComputeUnit",
    "ConfigMap",
    "Container",
    "ContainerPort",
    "CronJob",
    "DaemonSet",
    "Deployment",
    "EndpointAddress",
    "Endpoints",
    "EnvVar",
    "GenericObject",
    "ImmutableObjectError",
    "Ingress",
    "IngressRule",
    "InternTable",
    "Inventory",
    "Job",
    "KubernetesModelError",
    "KubernetesObject",
    "LabelSelectorRequirement",
    "LabelSet",
    "LabelSurface",
    "Namespace",
    "NetworkPolicy",
    "NetworkPolicyPeer",
    "NetworkPolicyPort",
    "NetworkPolicyRule",
    "ObjectMeta",
    "ParseError",
    "Pod",
    "PodSpec",
    "PodTemplateSpec",
    "Probe",
    "ReplicaSet",
    "Role",
    "RoleBinding",
    "Sealable",
    "Secret",
    "Selector",
    "SelectorError",
    "Service",
    "ServiceAccount",
    "ServicePort",
    "StatefulSet",
    "ValidationError",
    "Workload",
    "yaml_dump",
    "yaml_dump_all",
    "yaml_load",
    "yaml_load_all",
    "allow_ports_policy",
    "clear_intern_table",
    "deny_all_policy",
    "dump_yaml",
    "intern_object",
    "intern_stats",
    "equality_selector",
    "find_duplicate_label_sets",
    "is_compute_unit_kind",
    "is_ephemeral_port",
    "known_kinds",
    "load_yaml",
    "make_namespace",
    "object_from_dict",
    "objects_from_dicts",
    "parse_selector",
    "selectors_overlap",
    "validate_port_number",
]
