"""Label and selector semantics.

Kubernetes identifies and groups objects through string key/value *labels*
and matches them with *selectors*.  Label collisions between unrelated
resources are the root cause of the M4 misconfiguration family in the paper
(Section 3.3), so this module implements the matching semantics carefully
and exposes helpers used by the analyzer:

* :class:`LabelSet` -- validated, immutable mapping of labels.
* :class:`Selector` -- ``matchLabels`` + ``matchExpressions`` selector with
  the same matching rules as the Kubernetes API server.
* :func:`equality_selector` / :func:`parse_selector` -- convenience
  constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from ..memo import remember
from .errors import SelectorError, ValidationError

# Kubernetes label keys are `[prefix/]name` where the name part is at most 63
# characters of alphanumerics, '-', '_' or '.', starting and ending with an
# alphanumeric.  The optional prefix is a DNS subdomain.
_NAME_RE = re.compile(r"^[A-Za-z0-9]([A-Za-z0-9._-]{0,61}[A-Za-z0-9])?$")
_PREFIX_RE = re.compile(r"^[a-z0-9]([a-z0-9.-]{0,251}[a-z0-9])?$")
_VALUE_RE = re.compile(r"^$|^[A-Za-z0-9]([A-Za-z0-9._-]{0,61}[A-Za-z0-9])?$")

#: Operators accepted in ``matchExpressions`` entries.
VALID_OPERATORS = ("In", "NotIn", "Exists", "DoesNotExist")


#: Memo of strings that already passed key/value validation.  Label keys and
#: values repeat enormously across a catalogue (``app.kubernetes.io/name``
#: appears on nearly every object), and the regex checks dominate LabelSet
#: construction on the cold render path.  Only *valid* strings are memoized,
#: so the error behaviour is unchanged.  The ``isinstance`` check stays ahead
#: of every lookup: an unhashable input must raise ``ValidationError``, not
#: the lookup's ``TypeError``.
_VALID_KEYS: dict[str, bool] = {}
_VALID_VALUES: dict[str, bool] = {}
_VALIDATION_MEMO_MAXSIZE = 16384


def validate_label_key(key: str) -> str:
    """Validate a label key and return it unchanged.

    Raises :class:`ValidationError` when the key does not follow the
    Kubernetes ``[prefix/]name`` grammar.
    """
    if isinstance(key, str) and key in _VALID_KEYS:
        return key
    if not isinstance(key, str) or not key:
        raise ValidationError("label key must be a non-empty string")
    prefix, _, name = key.rpartition("/")
    if prefix and not _PREFIX_RE.match(prefix):
        raise ValidationError(f"invalid label key prefix: {prefix!r}")
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid label key name: {name!r}")
    remember(_VALID_KEYS, key, True, _VALIDATION_MEMO_MAXSIZE)
    return key


def validate_label_value(value: str) -> str:
    """Validate a label value and return it unchanged."""
    if isinstance(value, str) and value in _VALID_VALUES:
        return value
    if not isinstance(value, str):
        raise ValidationError("label value must be a string")
    if not _VALUE_RE.match(value):
        raise ValidationError(f"invalid label value: {value!r}")
    remember(_VALID_VALUES, value, True, _VALIDATION_MEMO_MAXSIZE)
    return value


class LabelSet(Mapping[str, str]):
    """An immutable, validated set of Kubernetes labels.

    Behaves like a read-only mapping and supports hashing so label sets can
    be used as dictionary keys when grouping compute units by identical
    labels (M4A detection).
    """

    __slots__ = ("_labels", "_hash", "_items")

    def __init__(self, labels: Mapping[str, str] | None = None) -> None:
        if type(labels) is LabelSet:
            # Already validated: share the backing dict (label sets are
            # read-only), skipping the per-label regex work.
            self._labels: dict[str, str] = labels._labels
            self._hash: int | None = labels._hash
            self._items: frozenset | None = labels._items
            return
        items = {}
        for key, value in (labels or {}).items():
            items[validate_label_key(key)] = validate_label_value(str(value))
        self._labels = items
        self._hash = None
        self._items = None

    # Mapping interface -------------------------------------------------
    def __getitem__(self, key: str) -> str:
        return self._labels[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    # Pickling ships the labels alone: the memoized hash depends on the
    # writing process's string-hash seed, and the item set is derived.
    def __getstate__(self) -> dict[str, str]:
        return self._labels

    def __setstate__(self, state: dict[str, str]) -> None:
        self._labels = state
        self._hash = None
        self._items = None

    def item_set(self) -> frozenset:
        """The labels as a hashable ``frozenset`` of ``(key, value)`` pairs.

        Memoized: this is the subset-test currency of every selector index
        (inventory, policy index, cluster-wide pass).
        """
        cached = self._items
        if cached is None:
            cached = frozenset(self._labels.items())
            self._items = cached
        return cached

    def __hash__(self) -> int:
        # Memoized: label sets are immutable and the M4 grouping passes hash
        # every compute unit's labels once per analysis.
        cached = self._hash
        if cached is None:
            cached = hash(self.item_set())
            self._hash = cached
        return cached

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelSet):
            return self._labels == other._labels
        if isinstance(other, Mapping):
            return self._labels == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._labels.items()))
        return f"LabelSet({inner})"

    # Convenience helpers ------------------------------------------------
    def merged(self, other: Mapping[str, str]) -> "LabelSet":
        """Return a new label set with ``other`` layered on top of this one."""
        combined = dict(self._labels)
        combined.update(other)
        return LabelSet(combined)

    def subset_of(self, other: Mapping[str, str]) -> bool:
        """Return ``True`` when every label in this set appears in ``other``."""
        return all(other.get(key) == value for key, value in self._labels.items())

    def shared_with(self, other: Mapping[str, str]) -> dict[str, str]:
        """Return the labels (key and value) common to both sets."""
        return {
            key: value
            for key, value in self._labels.items()
            if other.get(key) == value
        }

    def to_dict(self) -> dict[str, str]:
        """Return a plain mutable dictionary copy of the labels."""
        return dict(self._labels)


@dataclass(frozen=True)
class LabelSelectorRequirement:
    """A single ``matchExpressions`` entry."""

    key: str
    operator: str
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_label_key(self.key)
        if self.operator not in VALID_OPERATORS:
            raise SelectorError(f"invalid selector operator: {self.operator!r}")
        if self.operator in ("In", "NotIn") and not self.values:
            raise SelectorError(f"operator {self.operator} requires values")
        if self.operator in ("Exists", "DoesNotExist") and self.values:
            raise SelectorError(f"operator {self.operator} must not have values")

    def matches(self, labels: Mapping[str, str]) -> bool:
        """Evaluate this requirement against a label mapping."""
        present = self.key in labels
        if self.operator == "Exists":
            return present
        if self.operator == "DoesNotExist":
            return not present
        if self.operator == "In":
            return present and labels[self.key] in self.values
        # NotIn: absent keys match, present keys must not hold a listed value.
        return not present or labels[self.key] not in self.values

    def to_dict(self) -> dict:
        data: dict = {"key": self.key, "operator": self.operator}
        if self.values:
            data["values"] = list(self.values)
        return data


@dataclass(frozen=True)
class Selector:
    """A Kubernetes label selector (``matchLabels`` + ``matchExpressions``).

    An *empty* selector is meaningful: for services it selects nothing
    (selector-less service), while for network policies an empty
    ``podSelector`` selects every pod in the namespace.  Callers decide which
    interpretation applies; :meth:`matches` implements the conjunction of all
    requirements and :attr:`is_empty` reports emptiness.
    """

    match_labels: LabelSet = field(default_factory=LabelSet)
    match_expressions: tuple[LabelSelectorRequirement, ...] = ()

    @property
    def is_empty(self) -> bool:
        """``True`` when the selector has no requirements at all."""
        return not self.match_labels and not self.match_expressions

    def matches(self, labels: Mapping[str, str] | None) -> bool:
        """Return ``True`` if ``labels`` satisfy every requirement."""
        labels = labels or {}
        for key, value in self.match_labels.items():
            if labels.get(key) != value:
                return False
        return all(req.matches(labels) for req in self.match_expressions)

    def as_match_items(self) -> frozenset[tuple[str, str]] | None:
        """Flatten the selector into a hashable equality-match key.

        Returns a frozenset of ``(key, value)`` pairs when the selector is a
        pure ``matchLabels`` selector: the selector matches a label mapping
        ``L`` iff the returned set is a subset of ``frozenset(L.items())``.
        Returns ``None`` when ``matchExpressions`` are present and the full
        :meth:`matches` evaluation is required.  The compiled policy engine
        (:mod:`repro.cluster.policy_index`) uses this to replace repeated
        selector evaluation with subset tests on pre-hashed label sets.
        """
        if self.match_expressions:
            return None
        labels = self.match_labels
        if type(labels) is LabelSet:
            return labels.item_set()
        # Hand-built selectors may carry a plain mapping.
        return frozenset(labels.items())

    def requirement_keys(self) -> set[str]:
        """Return every label key referenced by the selector."""
        keys = set(self.match_labels)
        keys.update(req.key for req in self.match_expressions)
        return keys

    def to_dict(self) -> dict:
        data: dict = {}
        if self.match_labels:
            data["matchLabels"] = self.match_labels.to_dict()
        if self.match_expressions:
            data["matchExpressions"] = [req.to_dict() for req in self.match_expressions]
        return data

    @classmethod
    def from_dict(cls, data: Mapping | None) -> "Selector":
        """Build a selector from an API-style dictionary.

        Accepts both the modern ``{matchLabels, matchExpressions}`` shape and
        the legacy bare mapping used by ``Service.spec.selector``.
        """
        if not data:
            return cls()
        if "matchLabels" in data or "matchExpressions" in data:
            labels = LabelSet(data.get("matchLabels") or {})
            expressions = tuple(
                LabelSelectorRequirement(
                    key=entry["key"],
                    operator=entry["operator"],
                    values=tuple(entry.get("values") or ()),
                )
                for entry in data.get("matchExpressions") or ()
            )
            return cls(match_labels=labels, match_expressions=expressions)
        # Legacy equality-based selector: a plain map of labels.
        return cls(match_labels=LabelSet(data))


def equality_selector(**labels: str) -> Selector:
    """Build a selector that requires each keyword argument as an exact label."""
    return Selector(match_labels=LabelSet(labels))


def parse_selector(data: Mapping | None) -> Selector:
    """Alias of :meth:`Selector.from_dict` kept for readability at call sites."""
    return Selector.from_dict(data)


def find_duplicate_label_sets(
    items: Iterable[tuple[str, Mapping[str, str]]],
) -> list[tuple[LabelSet, list[str]]]:
    """Group item names by identical label sets.

    ``items`` is an iterable of ``(name, labels)`` pairs.  The return value
    lists every label set shared by two or more distinct names -- the exact
    condition behind compute-unit collisions (M4A).
    """
    groups: dict[LabelSet, list[str]] = {}
    for name, labels in items:
        try:
            label_set = LabelSet(labels)
        except ValidationError:
            continue
        if not label_set:
            continue
        groups.setdefault(label_set, []).append(name)
    return [
        (label_set, sorted(set(names)))
        for label_set, names in groups.items()
        if len(set(names)) > 1
    ]


def selectors_overlap(first: Selector, second: Selector, sample: Sequence[Mapping[str, str]]) -> bool:
    """Return ``True`` when both selectors match at least one common label set.

    ``sample`` is the population of label sets to test against (typically the
    labels of every compute unit in the cluster).
    """
    return any(first.matches(labels) and second.matches(labels) for labels in sample)
