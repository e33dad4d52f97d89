"""Kind registry and YAML parsing.

Converts raw manifests (dictionaries or multi-document YAML text) into the
typed objects of this package, falling back to :class:`GenericObject` for
unknown kinds so that real-world charts with CRDs still parse.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterable

from .errors import ParseError
from .meta import KubernetesObject
from .yamlio import pyyaml, yaml_dump_all, yaml_load_all
from .misc import (
    ClusterRole,
    ClusterRoleBinding,
    ConfigMap,
    GenericObject,
    Ingress,
    Namespace,
    Role,
    RoleBinding,
    Secret,
    ServiceAccount,
)
from .networkpolicy import NetworkPolicy
from .pod import Pod
from .service import Service
from .workloads import CronJob, DaemonSet, Deployment, Job, ReplicaSet, StatefulSet

#: Mapping from ``kind`` to the constructor handling it.
KIND_REGISTRY: dict[str, Callable[[Mapping], KubernetesObject]] = {
    "Pod": Pod.from_dict,
    "Deployment": Deployment.from_dict,
    "ReplicaSet": ReplicaSet.from_dict,
    "StatefulSet": StatefulSet.from_dict,
    "DaemonSet": DaemonSet.from_dict,
    "Job": Job.from_dict,
    "CronJob": CronJob.from_dict,
    "Service": Service.from_dict,
    "NetworkPolicy": NetworkPolicy.from_dict,
    "Namespace": Namespace.from_dict,
    "ConfigMap": ConfigMap.from_dict,
    "Secret": Secret.from_dict,
    "ServiceAccount": ServiceAccount.from_dict,
    "Role": Role.from_dict,
    "ClusterRole": ClusterRole.from_dict,
    "RoleBinding": RoleBinding.from_dict,
    "ClusterRoleBinding": ClusterRoleBinding.from_dict,
    "Ingress": Ingress.from_dict,
}


def known_kinds() -> list[str]:
    """Return the kinds that parse into a dedicated model class."""
    return sorted(KIND_REGISTRY)


def object_from_dict(data: Mapping) -> KubernetesObject:
    """Convert a single manifest dictionary into a model object."""
    if not isinstance(data, Mapping):
        raise ParseError(f"manifest must be a mapping, got {type(data).__name__}")
    kind = data.get("kind")
    if not kind:
        raise ParseError("manifest is missing the 'kind' field")
    constructor = KIND_REGISTRY.get(str(kind), GenericObject.from_dict)
    return constructor(data)


def objects_from_dicts(
    documents: Iterable[Mapping | None], interned: bool = False
) -> list[KubernetesObject]:
    """Convert an iterable of manifest dictionaries, skipping empty documents.

    ``interned=True`` routes each document through the shared intern table
    (:mod:`repro.k8s.inventory`): documents with a previously seen content
    fingerprint return the same sealed object instead of building a new one.
    The default un-interned build constructs fresh mutable objects -- the
    reference path the interning property suite diffs against.
    """
    if interned:
        from .inventory import intern_object

        constructor = intern_object
    else:
        constructor = object_from_dict
    objects: list[KubernetesObject] = []
    for document in documents:
        if not document:
            continue
        objects.append(constructor(document))
    return objects


def load_yaml(text: str) -> list[KubernetesObject]:
    """Parse multi-document YAML text into model objects."""
    try:
        documents = list(yaml_load_all(text))
    except pyyaml().YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    return objects_from_dicts(documents)


def dump_yaml(objects: Iterable[KubernetesObject]) -> str:
    """Serialize model objects back to multi-document YAML."""
    documents = [obj.to_dict() for obj in objects]
    return yaml_dump_all(documents, sort_keys=False, default_flow_style=False)
