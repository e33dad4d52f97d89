"""Object metadata and the base class shared by every Kubernetes resource.

Besides the plain dataclasses, this module provides the *sealing* substrate
behind content interning (:mod:`repro.k8s.inventory`): a sealed object (and
its sealed sub-structures) rejects attribute assignment, which is what makes
it safe to share one typed object graph between every render-cache entry and
inventory that observed the same manifest content.  ``copy.deepcopy`` of a
sealed object deliberately produces a *thawed* (mutable) copy -- that is the
sanctioned way to obtain a patchable variant (the mitigation engine relies
on it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping

from ..memo import remember
from .errors import ImmutableObjectError, ValidationError
from .labels import LabelSet

#: RFC 1123 DNS label used for object and namespace names.
_DNS_LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$")
#: RFC 1123 DNS subdomain (allows dots) used for most resource names.
_DNS_SUBDOMAIN_RE = re.compile(r"^[a-z0-9]([a-z0-9.-]{0,251}[a-z0-9])?$")

DEFAULT_NAMESPACE = "default"


class Sealable:
    """Opt-in immutability: after :meth:`_seal_self`, assignments raise.

    The flag lives as a class attribute default so unsealed instances pay a
    single class-dict lookup per assignment and never an exception.  Sealing
    sets an instance attribute through ``object.__setattr__``, bypassing the
    guard.  Pickling and default ``copy`` preserve the seal (they restore
    ``__dict__`` directly); :meth:`__deepcopy__` thaws, so deep copies are
    ordinary mutable objects again.
    """

    _sealed: ClassVar[bool] = False

    def __setattr__(self, name: str, value: Any) -> None:
        if self._sealed:
            raise ImmutableObjectError(
                f"{type(self).__name__} is sealed (content-interned); "
                f"cannot assign {name!r} -- deepcopy it to get a mutable variant"
            )
        object.__setattr__(self, name, value)

    def _seal_self(self) -> None:
        object.__setattr__(self, "_sealed", True)

    def __deepcopy__(self, memo: dict):
        import copy as _copy

        cls = type(self)
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key in ("_sealed", "_validated"):
                continue
            object.__setattr__(clone, key, _copy.deepcopy(value, memo))
        return clone


#: Names that already passed validation -- object and namespace names repeat
#: across renders (and namespaces across whole catalogues), so the regex
#: checks on every ``ObjectMeta`` construction are memoized.  Only valid
#: strings enter the memo.  The ``isinstance`` check stays ahead of every
#: lookup: an unhashable name must raise ``ValidationError``, not the
#: lookup's ``TypeError``.
_VALID_DNS_LABELS: dict[str, bool] = {}
_VALID_DNS_SUBDOMAINS: dict[str, bool] = {}
_VALIDATION_MEMO_MAXSIZE = 16384


def validate_dns_label(value: str, what: str = "name") -> str:
    """Validate an RFC 1123 DNS label (no dots), as used for namespaces."""
    if isinstance(value, str) and value in _VALID_DNS_LABELS:
        return value
    if not isinstance(value, str) or not _DNS_LABEL_RE.match(value):
        raise ValidationError(f"invalid {what}: {value!r} (must be an RFC 1123 DNS label)")
    remember(_VALID_DNS_LABELS, value, True, _VALIDATION_MEMO_MAXSIZE)
    return value


def validate_dns_subdomain(value: str, what: str = "name") -> str:
    """Validate an RFC 1123 DNS subdomain, as used for most object names."""
    if isinstance(value, str) and value in _VALID_DNS_SUBDOMAINS:
        return value
    if not isinstance(value, str) or not _DNS_SUBDOMAIN_RE.match(value):
        raise ValidationError(
            f"invalid {what}: {value!r} (must be an RFC 1123 DNS subdomain)"
        )
    remember(_VALID_DNS_SUBDOMAINS, value, True, _VALIDATION_MEMO_MAXSIZE)
    return value


@dataclass
class ObjectMeta(Sealable):
    """Subset of ``metadata`` relevant to network misconfiguration analysis."""

    name: str = ""
    namespace: str = DEFAULT_NAMESPACE
    labels: LabelSet = field(default_factory=LabelSet)
    annotations: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name:
            validate_dns_subdomain(self.name)
        if self.namespace:
            validate_dns_label(self.namespace, "namespace")
        if not isinstance(self.labels, LabelSet):
            self.labels = LabelSet(self.labels or {})
        self.annotations = dict(self.annotations or {})

    def to_dict(self) -> dict:
        data: dict = {"name": self.name}
        if self.namespace and self.namespace != DEFAULT_NAMESPACE:
            data["namespace"] = self.namespace
        if self.labels:
            data["labels"] = self.labels.to_dict()
        if self.annotations:
            data["annotations"] = dict(self.annotations)
        return data

    @classmethod
    def from_dict(cls, data: Mapping | None) -> "ObjectMeta":
        data = data or {}
        return cls(
            name=data.get("name", ""),
            namespace=data.get("namespace") or DEFAULT_NAMESPACE,
            labels=LabelSet(data.get("labels") or {}),
            annotations=dict(data.get("annotations") or {}),
        )


@dataclass
class KubernetesObject(Sealable):
    """Base class for every modelled Kubernetes resource.

    Subclasses set the class attributes :attr:`KIND` and :attr:`API_VERSION`
    and implement :meth:`spec_to_dict` / :meth:`spec_from_dict`.
    """

    KIND: ClassVar[str] = ""
    API_VERSION: ClassVar[str] = "v1"
    NAMESPACED: ClassVar[bool] = True
    #: Set (per instance) after a successful :meth:`validate` on a sealed
    #: object; lets warm observation paths skip re-validating shared objects.
    _validated: ClassVar[bool] = False

    metadata: ObjectMeta = field(default_factory=ObjectMeta)

    # Identity -----------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.KIND

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def namespace(self) -> str:
        return self.metadata.namespace

    @property
    def labels(self) -> LabelSet:
        return self.metadata.labels

    @property
    def key(self) -> tuple[str, str, str]:
        """A cluster-unique identity tuple ``(kind, namespace, name)``."""
        namespace = self.namespace if self.NAMESPACED else ""
        return (self.KIND, namespace, self.name)

    def qualified_name(self) -> str:
        """A human-readable ``kind/namespace/name`` identifier."""
        if self.NAMESPACED:
            return f"{self.KIND}/{self.namespace}/{self.name}"
        return f"{self.KIND}/{self.name}"

    # Serialization -------------------------------------------------------
    def spec_to_dict(self) -> dict:
        """Serialize everything below ``metadata``; overridden by subclasses."""
        return {}

    def to_dict(self) -> dict:
        """Serialize the object to an API-style dictionary."""
        data = {
            "apiVersion": self.API_VERSION,
            "kind": self.KIND,
            "metadata": self.metadata.to_dict(),
        }
        data.update(self.spec_to_dict())
        return data

    def validate(self) -> None:
        """Run structural validation; subclasses extend this."""
        if not self.metadata.name:
            raise ValidationError("metadata.name is required", path="metadata.name")

    def validate_cached(self) -> None:
        """:meth:`validate`, memoized on sealed objects.

        A sealed object cannot change after a successful validation, so the
        result is recorded once and every later call returns immediately --
        this is what lets warm render-cache hits skip the observation path's
        validation walk.  Unsealed objects always re-validate (they may have
        been mutated since the last call).
        """
        if self._validated:
            return
        self.validate()
        if self._sealed:
            object.__setattr__(self, "_validated", True)

    # Sealing --------------------------------------------------------------
    def seal(self) -> "KubernetesObject":
        """Make this object (and its sealable sub-structures) immutable.

        Walks the instance's attributes -- including list payloads such as
        ``spec.containers`` -- and seals every :class:`Sealable` it finds,
        recursively (metadata, pod specs, embedded templates, containers).
        Dict payloads (a ``GenericObject``'s raw manifest tree,
        annotations) hold only plain data and stay untouched.  Note that
        sealing guards *attribute assignment*; list contents themselves
        (e.g. appending to ``container.ports``) are guarded by convention
        only.  Returns ``self`` for chaining.  Sealing is one-way: use
        ``copy.deepcopy`` to obtain a thawed copy.
        """
        _seal_tree(self)
        return self


def _seal_tree(node: "Sealable") -> None:
    if node._sealed:
        return
    node._seal_self()
    for value in vars(node).values():
        if isinstance(value, Sealable):
            _seal_tree(value)
        elif type(value) is list or type(value) is tuple:
            for item in value:
                if isinstance(item, Sealable):
                    _seal_tree(item)
