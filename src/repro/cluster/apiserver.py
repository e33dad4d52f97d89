"""The API server: object store plus admission chain.

The store indexes objects by ``(kind, namespace, name)`` and runs a chain of
admission controllers on every create/update, which is how the paper's
*defense* component (``repro.core.admission``) plugs into the cluster.
"""

from __future__ import annotations

from typing import Protocol

from ..k8s import Inventory, KubernetesObject
from .errors import AdmissionError, AlreadyExistsError, NotFoundError


class AdmissionController(Protocol):
    """Interface of an admission controller registered with the API server."""

    #: Human-readable identifier shown in error messages and audit entries.
    name: str

    def review(self, obj: KubernetesObject, store: "ObjectStore") -> None:
        """Raise :class:`AdmissionError` to reject, return to admit.

        Controllers may mutate ``obj`` in place (mutating admission).
        """


class ObjectStore:
    """Indexed storage of Kubernetes objects."""

    def __init__(self) -> None:
        self._objects: dict[tuple[str, str, str], KubernetesObject] = {}
        #: Monotonic counter bumped on every successful mutation.  Consumers
        #: (the cluster's compiled policy index) use it as a cheap epoch to
        #: invalidate derived caches without subscribing to individual writes.
        self.generation: int = 0

    # CRUD ------------------------------------------------------------------
    def put(self, obj: KubernetesObject, replace: bool = False) -> None:
        key = obj.key
        if not replace and key in self._objects:
            raise AlreadyExistsError(f"{obj.qualified_name()} already exists")
        self._objects[key] = obj
        self.generation += 1

    def get(self, kind: str, name: str, namespace: str = "default") -> KubernetesObject:
        for key in ((kind, namespace, name), (kind, "", name)):
            if key in self._objects:
                return self._objects[key]
        raise NotFoundError(f"{kind}/{namespace}/{name} not found")

    def delete(self, kind: str, name: str, namespace: str = "default") -> KubernetesObject:
        for key in ((kind, namespace, name), (kind, "", name)):
            obj = self._objects.pop(key, None)
            if obj is not None:
                self.generation += 1
                return obj
        raise NotFoundError(f"{kind}/{namespace}/{name} not found")

    def exists(self, kind: str, name: str, namespace: str = "default") -> bool:
        return (kind, namespace, name) in self._objects or (kind, "", name) in self._objects

    # Listing -------------------------------------------------------------------
    def list(self, kind: str | None = None, namespace: str | None = None) -> list[KubernetesObject]:
        return [
            obj
            for (obj_kind, obj_namespace, _), obj in sorted(self._objects.items())
            if (kind is None or obj_kind == kind)
            and (namespace is None or obj_namespace == namespace or obj_namespace == "")
        ]

    def all(self) -> list[KubernetesObject]:
        return [obj for _, obj in sorted(self._objects.items())]

    def inventory(self, namespace: str | None = None) -> Inventory:
        return Inventory(self.list(namespace=namespace))

    def namespaces(self) -> set[str]:
        return {namespace for (_, namespace, _) in self._objects if namespace}

    def clear(self) -> None:
        """Drop every object; the generation keeps moving strictly forward."""
        self._objects.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._objects)


class APIServer:
    """Applies objects through validation and the admission chain."""

    def __init__(self) -> None:
        self.store = ObjectStore()
        self._admission_controllers: list[AdmissionController] = []
        self.audit_log: list[dict] = []

    def reset(self) -> None:
        """Back to as-constructed state (store generation excepted, which
        only ever moves forward so epoch-keyed caches invalidate)."""
        self.store.clear()
        self._admission_controllers.clear()
        self.audit_log.clear()

    # Admission -----------------------------------------------------------------
    def register_admission_controller(self, controller: AdmissionController) -> None:
        self._admission_controllers.append(controller)

    def unregister_admission_controller(self, name: str) -> None:
        self._admission_controllers = [
            controller for controller in self._admission_controllers if controller.name != name
        ]

    @property
    def admission_controllers(self) -> list[AdmissionController]:
        return list(self._admission_controllers)

    # Object lifecycle -------------------------------------------------------------
    def apply(self, obj: KubernetesObject, replace: bool = True) -> KubernetesObject:
        """Validate, run admission, and store an object."""
        obj.validate()
        for controller in self._admission_controllers:
            try:
                controller.review(obj, self.store)
            except AdmissionError as exc:
                self.audit_log.append(
                    {
                        "verb": "create",
                        "object": obj.qualified_name(),
                        "decision": "denied",
                        "controller": controller.name,
                        "message": str(exc),
                    }
                )
                raise
        self.store.put(obj, replace=replace)
        self.audit_log.append(
            {"verb": "create", "object": obj.qualified_name(), "decision": "allowed"}
        )
        return obj

    def delete(self, kind: str, name: str, namespace: str = "default") -> KubernetesObject:
        obj = self.store.delete(kind, name, namespace)
        self.audit_log.append(
            {"verb": "delete", "object": obj.qualified_name(), "decision": "allowed"}
        )
        return obj

    def denied_objects(self) -> list[str]:
        """Names of objects rejected by admission, from the audit log."""
        return [entry["object"] for entry in self.audit_log if entry["decision"] == "denied"]
