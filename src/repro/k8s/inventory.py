"""Inventory: an immutable, index-carrying view over Kubernetes objects.

Both the static analyzer and the cluster simulator need the same queries
("all compute units", "services selecting this workload", "network policies
that select these labels", ...).  :class:`Inventory` centralizes them.

Two properties make the analysis hot path cheap:

* **Immutability with lazy frozen indexes.**  An inventory snapshots its
  objects at construction and never changes afterwards, so every derived
  view -- the by-kind buckets, the typed object lists, the per-namespace
  selector indexes, the unit→selecting-services and unit→selecting-policies
  memos -- is computed at most once and then shared by every caller.  The
  seed implementation rebuilt each of these lists per call, which made rule
  evaluation quadratic in practice (every rule re-walked and re-grouped the
  same objects).
* **Content interning** (:func:`intern_object`).  Typed objects are memoized
  on a canonical fingerprint of their manifest dictionary; repeated renders
  of the same chart/override variant therefore share one sealed object
  graph, and a warm render-cache hit returns shared references instead of
  re-running ``objects_from_dicts`` plus a pickle copy.  Interned objects
  are sealed (:meth:`~repro.k8s.meta.KubernetesObject.seal`): attribute
  assignment raises, so the sharing cannot be corrupted.  The un-interned
  build (``objects_from_dicts(..., interned=False)``) stays in-tree as the
  reference; the interning property suite proves the two observably
  equivalent.

The indexes assume the underlying objects do not change while the inventory
is alive -- true by construction for interned (sealed) objects, and by
convention everywhere else (mutating consumers such as the mitigation
engine work on thawed deep copies and build fresh inventories after
patching).

An inventory lives for one chart's analysis.  What outlives it is its
:class:`LabelSurface`, the labels and selectors the cluster-wide M4* pass
reads: analyzed entries and stored results carry the surface instead.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..memo import remember
from .labels import LabelSet, Selector
from .meta import KubernetesObject
from .networkpolicy import NetworkPolicy
from .pod import Pod, PodTemplateSpec
from .service import Service
from .workloads import Workload


def _label_items(labels: Mapping[str, str]) -> frozenset:
    """Hashable ``(key, value)`` pairs, via the LabelSet memo when possible."""
    if type(labels) is LabelSet:
        return labels.item_set()
    return frozenset(labels.items())


@dataclass
class ComputeUnit:
    """A uniform wrapper over anything that owns pods (Workload or bare Pod).

    Inventories hand out one stable wrapper per underlying object, so the
    small memos below (qualified name, declared ports, host-network flag)
    are computed once per analysis instead of once per rule.
    """

    obj: KubernetesObject
    _qualified: str | None = field(default=None, repr=False, compare=False)
    _declared: dict | None = field(default=None, repr=False, compare=False)
    _host_network: bool | None = field(default=None, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.obj.kind

    @property
    def name(self) -> str:
        return self.obj.name

    @property
    def namespace(self) -> str:
        return self.obj.namespace

    def qualified_name(self) -> str:
        if self._qualified is None:
            self._qualified = self.obj.qualified_name()
        return self._qualified

    def pod_template(self) -> PodTemplateSpec:
        if isinstance(self.obj, Workload):
            return self.obj.pod_template()
        assert isinstance(self.obj, Pod)
        return PodTemplateSpec(metadata=self.obj.metadata, spec=self.obj.spec)

    def pod_labels(self) -> Mapping[str, str]:
        if isinstance(self.obj, Workload):
            return self.obj.pod_labels()
        return self.obj.labels

    def replica_count(self) -> int:
        if isinstance(self.obj, Workload):
            return self.obj.replica_count()
        return 1

    def declared_port_numbers(self, protocol: str | None = None) -> set[int]:
        if self._declared is None:
            self._declared = {}
        cached = self._declared.get(protocol)
        if cached is None:
            cached = frozenset(self.pod_template().spec.declared_port_numbers(protocol))
            self._declared[protocol] = cached
        # Callers treat the result as a working set (M1/M3 subtract from it),
        # so hand out a fresh mutable copy of the memoized frozenset.
        return set(cached)

    def resolve_port_name(self, name: str) -> int | None:
        return self.pod_template().spec.resolve_port_name(name)

    def uses_host_network(self) -> bool:
        if self._host_network is None:
            self._host_network = self.pod_template().spec.host_network
        return self._host_network


@dataclass(frozen=True, slots=True)
class LabelSurface:
    """A chart's labels and selectors: all the cluster-wide M4* pass reads.

    ``units`` holds ``(qualified name, namespace, pod labels)`` per compute
    unit, in :meth:`Inventory.compute_units` order; ``services`` holds
    ``(qualified name, namespace, selector)`` per service that has a
    selector, in :meth:`Inventory.services` order.  A stored chart result
    keeps this record instead of its objects.
    """

    units: tuple[tuple[str, str, LabelSet], ...]
    services: tuple[tuple[str, str, Selector], ...]

    def label_surface(self) -> "LabelSurface":
        """The surface itself: M4* readers take a surface or an inventory alike."""
        return self


class Inventory:
    """An immutable, indexed collection of Kubernetes objects."""

    def __init__(self, objects: Iterable[KubernetesObject] = ()) -> None:
        self._objects: tuple[KubernetesObject, ...] = tuple(objects)
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._by_kind: dict[str, list[KubernetesObject]] = {}
        self._units: list[ComputeUnit] | None = None
        self._services: list[Service] | None = None
        self._policies: list[NetworkPolicy] | None = None
        self._pods: list[Pod] | None = None
        #: namespace -> [(service, match_items-or-None)], inventory order.
        self._service_index: dict[str, list] | None = None
        #: namespace -> [(unit, frozenset(labels.items()), labels)], order.
        self._unit_index: dict[str, list] | None = None
        self._selecting_services: dict[tuple, list[Service]] = {}
        self._selecting_policies: dict[tuple, list[NetworkPolicy]] = {}
        #: id(service) -> (service, selected units); the service reference is
        #: kept so the id stays valid for the memo's lifetime.
        self._selected_units: dict[int, tuple[Service, list[ComputeUnit]]] = {}
        self._surface: LabelSurface | None = None

    # The lazy caches are derived state: pickling ships only the objects and
    # rebuilds indexes on demand in the receiving process.
    def __reduce__(self):
        return (Inventory, (self._objects,))

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[KubernetesObject]:
        return iter(self._objects)

    # Queries ----------------------------------------------------------------
    # The list-returning queries memoize and hand back the cached list itself;
    # callers treat them as read-only views (the seed rebuilt them per call).
    def of_kind(self, kind: str) -> list[KubernetesObject]:
        cached = self._by_kind.get(kind)
        if cached is None:
            cached = [obj for obj in self._objects if obj.kind == kind]
            self._by_kind[kind] = cached
        return cached

    def compute_units(self) -> list[ComputeUnit]:
        """Every pod-owning object (workload controllers and bare pods)."""
        if self._units is None:
            self._units = [
                ComputeUnit(obj)
                for obj in self._objects
                if isinstance(obj, (Workload, Pod))
            ]
        return self._units

    def services(self) -> list[Service]:
        if self._services is None:
            self._services = [obj for obj in self._objects if isinstance(obj, Service)]
        return self._services

    def network_policies(self) -> list[NetworkPolicy]:
        if self._policies is None:
            self._policies = [
                obj for obj in self._objects if isinstance(obj, NetworkPolicy)
            ]
        return self._policies

    def pods(self) -> list[Pod]:
        if self._pods is None:
            self._pods = [obj for obj in self._objects if isinstance(obj, Pod)]
        return self._pods

    def label_surface(self) -> LabelSurface:
        """The :class:`LabelSurface` of these objects, built once."""
        if self._surface is None:
            units = []
            for unit in self.compute_units():
                labels = unit.pod_labels()
                if type(labels) is not LabelSet:
                    labels = LabelSet(labels)
                units.append((unit.qualified_name(), unit.namespace, labels))
            self._surface = LabelSurface(
                tuple(units),
                tuple(
                    (service.qualified_name(), service.namespace, service.selector)
                    for service in self.services()
                    if service.has_selector
                ),
            )
        return self._surface

    # Selector indexes -------------------------------------------------------
    def _services_by_namespace(self) -> dict[str, list]:
        if self._service_index is None:
            index: dict[str, list] = {}
            for service in self.services():
                if not service.has_selector:
                    continue
                index.setdefault(service.namespace, []).append(
                    (service, service.selector.as_match_items())
                )
            self._service_index = index
        return self._service_index

    def _units_by_namespace(self) -> dict[str, list]:
        if self._unit_index is None:
            index: dict[str, list] = {}
            for unit in self.compute_units():
                labels = unit.pod_labels()
                index.setdefault(unit.namespace, []).append(
                    (unit, _label_items(labels), labels)
                )
            self._unit_index = index
        return self._unit_index

    def services_selecting(self, labels: Mapping[str, str], namespace: str) -> list[Service]:
        """Services whose selector matches ``labels`` in ``namespace``."""
        key = (namespace, _label_items(labels))
        cached = self._selecting_services.get(key)
        if cached is None:
            label_items = key[1]
            cached = [
                service
                for service, match_items in self._services_by_namespace().get(namespace, ())
                if (
                    match_items <= label_items
                    if match_items is not None
                    else service.selector.matches(labels)
                )
            ]
            self._selecting_services[key] = cached
        return cached

    def compute_units_selected_by(self, service: Service) -> list[ComputeUnit]:
        """Compute units targeted by a service selector."""
        if not service.has_selector:
            return []
        cached = self._selected_units.get(id(service))
        if cached is not None:
            return cached[1]
        match_items = service.selector.as_match_items()
        selected = [
            unit
            for unit, label_items, labels in self._units_by_namespace().get(
                service.namespace, ()
            )
            if (
                match_items <= label_items
                if match_items is not None
                else service.selector.matches(labels)
            )
        ]
        self._selected_units[id(service)] = (service, selected)
        return selected

    def policies_selecting(self, labels: Mapping[str, str], namespace: str) -> list[NetworkPolicy]:
        key = (namespace, _label_items(labels))
        cached = self._selecting_policies.get(key)
        if cached is None:
            cached = [
                policy
                for policy in self.network_policies()
                if policy.selects(labels, namespace)
            ]
            self._selecting_policies[key] = cached
        return cached

    def validate_all(self) -> list[str]:
        """Validate every object, returning the collected error messages."""
        errors: list[str] = []
        for obj in self._objects:
            try:
                obj.validate()
            except Exception as exc:  # noqa: BLE001 - collecting all messages
                errors.append(f"{obj.qualified_name()}: {exc}")
        return errors


# ---------------------------------------------------------------------------
# Content interning
# ---------------------------------------------------------------------------

_INTERN_TABLE_MAXSIZE = 65536


class InternTable:
    """Typed objects memoized on a canonical manifest fingerprint.

    The fingerprint is the pickle of the manifest dictionary: it covers every
    field (so two documents intern to the same object only when their content
    -- including key order, which is stable for same-template renders -- is
    identical) and costs far less than typed-object construction.  Interned
    objects are sealed before they are published, which is what makes the
    sharing safe: same fingerprint ⇒ same object identity, and mutation of a
    shared object raises :class:`~repro.k8s.errors.ImmutableObjectError`.

    Documents that cannot be pickled (exotic values from adversarial
    templates) fall back to a fresh un-interned build -- interning is an
    accelerator, never a gate.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, KubernetesObject] = {}
        self.hits = 0
        self.misses = 0
        self.uninternable = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/entry counters (guard hooks for the property suite)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "uninternable": self.uninternable,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.uninternable = 0

    def intern(self, document: Mapping) -> KubernetesObject:
        """The shared sealed object for ``document`` (building it on a miss)."""
        from .registry import object_from_dict

        try:
            key = pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable content: build fresh
            self.uninternable += 1
            return object_from_dict(document)
        obj = self._entries.get(key)
        if obj is not None:
            self.hits += 1
            return obj
        self.misses += 1
        obj = object_from_dict(document)
        obj.seal()
        return remember(self._entries, key, obj, _INTERN_TABLE_MAXSIZE)


_SHARED_INTERN = InternTable()


def intern_object(document: Mapping) -> KubernetesObject:
    """Intern one manifest dictionary through the shared table."""
    return _SHARED_INTERN.intern(document)


def intern_stats() -> dict[str, int]:
    """Counters of the shared intern table."""
    return _SHARED_INTERN.stats()


def clear_intern_table() -> None:
    """Drop every shared interned object (tests and benchmarks)."""
    _SHARED_INTERN.clear()
