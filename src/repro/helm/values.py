"""Helm values: loading, deep merging, dotted-path access, key order and fingerprints.

A Helm *manifest* (``values.yaml``) is a nested mapping.  Users override it
with ``--set`` style assignments or additional value files; overrides are
merged recursively, with later layers winning, exactly as Helm does.
Trees are key-sorted where they enter (:func:`sorted_tree`) and merges
keep them so, which makes :func:`fingerprint_values` the one content
fingerprint of a values tree.  Chart files load through the render path's
block-YAML subset parser, with PyYAML as the fallback and the oracle.
"""

from __future__ import annotations

import copy
import hashlib
import marshal
from collections.abc import Mapping
from typing import Any

from ..k8s.yamlio import pyyaml, yaml_dump, yaml_load
from .errors import ValuesError


def deep_merge(base: Mapping[str, Any], override: Mapping[str, Any]) -> dict[str, Any]:
    """Recursively merge ``override`` on top of ``base`` and return a new dict.

    Mappings are merged key by key; any other type (including lists) is
    replaced wholesale, matching Helm's coalescing behaviour.  Each merged
    mapping lists its keys in :func:`sorted_keys` order, so an override's
    new keys do not trail the base's.
    """
    merged: dict[str, Any] = copy.deepcopy(dict(base))
    for key, value in override.items():
        existing = merged.get(key)
        if isinstance(existing, Mapping) and isinstance(value, Mapping):
            merged[key] = deep_merge(existing, value)
        else:
            merged[key] = copy.deepcopy(value)
    return in_key_order(merged)


def merged_view(base: Mapping[str, Any], override: Mapping[str, Any]) -> dict[str, Any]:
    """:func:`deep_merge` with structural sharing instead of deep copies.

    Subtrees the override does not touch are returned *by reference* from
    ``base``; only the mapping spines along overridden paths are rebuilt.
    The result is therefore a read-only view: callers must not mutate it (or
    anything reachable from it), because that would write through to the
    chart's default values.  The interned render path uses this -- its
    outputs are read-only by contract anyway -- while :func:`deep_merge`
    remains the mutable-result reference used everywhere else.
    """
    if not override:
        return base if isinstance(base, dict) else dict(base)
    merged: dict[str, Any] = dict(base)
    for key, value in override.items():
        existing = merged.get(key)
        if isinstance(existing, Mapping) and isinstance(value, Mapping):
            merged[key] = merged_view(existing, value)
        else:
            merged[key] = value
    return in_key_order(merged)


def get_path(values: Mapping[str, Any], path: str, default: Any = None) -> Any:
    """Look up a dotted path (``primary.service.ports.mysql``) in ``values``."""
    current: Any = values
    if not path:
        return current
    for part in path.split("."):
        if isinstance(current, Mapping) and part in current:
            current = current[part]
        else:
            return default
    return current


def set_path(values: dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path inside ``values`` in place, creating nested dicts."""
    if not path:
        raise ValuesError("cannot set an empty path")
    parts = path.split(".")
    current: dict[str, Any] = values
    for part in parts[:-1]:
        node = current.get(part)
        if not isinstance(node, dict):
            node = {}
            current[part] = node
        current = node
    current[parts[-1]] = value


def load_values(text: str) -> dict[str, Any]:
    """Parse a ``values.yaml`` document; an empty document yields ``{}``."""
    return _load_mapping(text, "values.yaml")


def _load_mapping(text: str, name: str) -> dict[str, Any]:
    """The top-level mapping of chart file ``name`` (``{}`` when empty).

    The block-YAML subset parser
    (:func:`repro.helm.structured.parse_simple_yaml`) reads the text when
    it can, comments included; PyYAML, the oracle it equals, reads
    anything outside the subset, so a file of plain block YAML never
    imports PyYAML.  Raises :class:`ValuesError` naming ``name`` when the
    text is not YAML, holds a value PyYAML cannot construct (a date such
    as ``2024-13-45``) or is not a mapping.
    """
    # structured imports template, which imports this module.
    from .structured import _UnsupportedYaml, parse_simple_yaml

    try:
        documents = parse_simple_yaml(text)
    except _UnsupportedYaml:
        documents = None  # PyYAML reads it below, outside this handler
    if documents is not None:
        data = documents[0] if documents else None
    else:
        try:
            data = yaml_load(text)
        except (pyyaml().YAMLError, ValueError) as exc:
            # PyYAML calls a string input "<unicode string>": name the file.
            detail = str(exc).replace('"<unicode string>"', f'"{name}"')
            raise ValuesError(f"invalid YAML in {name}: {detail}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValuesError(f"{name} must contain a mapping at the top level")
    return data


def dump_values(values: Mapping[str, Any]) -> str:
    """Serialize values back to YAML (stable key order for reproducibility)."""
    return yaml_dump(dict(values), sort_keys=True, default_flow_style=False)


def sorted_keys(mapping: Mapping[Any, Any]) -> list[Any]:
    """``mapping``'s keys in Helm's map order: sorted.

    Mixed-type keys (YAML allows them) sort by type name, then string form.
    """
    try:
        return sorted(mapping)
    except TypeError:
        return sorted(mapping, key=lambda key: (type(key).__name__, str(key)))


def in_key_order(mapping: Mapping[Any, Any]) -> dict[Any, Any]:
    """A dict of ``mapping``'s items in :func:`sorted_keys` order (one level)."""
    return {key: mapping[key] for key in sorted_keys(mapping)}


def sorted_tree(value: Any) -> Any:
    """``value`` with every mapping's keys in sorted order, recursively.

    Helm reads values as maps, whose keys ``range`` and ``toYaml`` visit in
    sorted order.  Chart values and override trees pass through here where
    they enter, so equal trees render and fingerprint alike whatever order
    they were written in.  Dicts and lists are rebuilt; other leaves are
    shared.
    """
    if isinstance(value, dict):
        return {key: sorted_tree(value[key]) for key in sorted_keys(value)}
    if isinstance(value, list):
        return [sorted_tree(item) for item in value]
    return value


def fingerprint_values(value: Any) -> str:
    """A blake2b content fingerprint of a plain tree (hex, 16 bytes).

    The tree is serialized by ``marshal`` in C.  Version 2 is pinned because
    later versions emit back-references, which would make the bytes depend
    on which objects are shared rather than on content alone.  Marshal
    keeps mapping order, so equal trees fingerprint alike once
    :func:`sorted_tree` has ordered them, as it orders every chart's values
    and every override tree the renderer sees.  A tree holding a leaf
    marshal cannot write (a YAML date) is hashed by its ``repr`` behind a
    NUL byte, which no marshal stream starts with, so the two encodings
    never collide.
    """
    try:
        payload = marshal.dumps(value, 2)
    except ValueError:
        payload = b"\x00" + repr(value).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()
