"""Exceptions raised by the Kubernetes object model."""

from __future__ import annotations


class KubernetesModelError(Exception):
    """Base class for all errors raised by :mod:`repro.k8s`."""


class ValidationError(KubernetesModelError):
    """A resource definition violates the Kubernetes object schema.

    The error carries the ``path`` of the offending field (dotted notation,
    e.g. ``spec.containers[0].ports[1].containerPort``) so callers can point
    users at the exact location inside a YAML document.
    """

    def __init__(self, message: str, path: str = "") -> None:
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class ImmutableObjectError(KubernetesModelError):
    """An attribute assignment hit a sealed (content-interned) object.

    Sealed objects are shared across render-cache entries and inventories;
    mutating one in place would corrupt every other consumer.  Callers that
    need a mutable variant take a ``copy.deepcopy`` (which thaws) or rebuild
    the object through its constructor.
    """


class SelectorError(KubernetesModelError):
    """A label selector is malformed (bad operator, missing values, ...)."""


class ParseError(KubernetesModelError):
    """A YAML document could not be converted into model objects."""
