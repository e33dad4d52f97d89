"""PyYAML load/dump through its fastest safe classes, imported on first use.

PyYAML ships optional libyaml C bindings (``CSafeLoader``/``CSafeDumper``)
that parse and emit roughly an order of magnitude faster than the pure-Python
classes.  Every PyYAML call in the repository (rendered manifests on the
text path, the subset parser's fallbacks, ``toYaml``/``fromYaml`` template
functions, ``analyze``'s manifest files) goes through this single helper,
which picks the C classes when the extension is compiled in and falls back to
the pure-Python ``SafeLoader``/``SafeDumper`` otherwise.

Importing PyYAML costs ~25 ms, and a sweep or a watch over the catalogue's
charts never needs it (the block-YAML subset parser in
:mod:`repro.helm.structured` reads chart files and skeletons), so nothing
here imports it until a call does: :func:`pyyaml` is the one import site.
"""

from __future__ import annotations

import functools
from types import ModuleType
from typing import Any, Iterable, Iterator


def pyyaml() -> ModuleType:
    """The PyYAML module, imported on first use (``pyyaml().YAMLError``)."""
    import yaml

    return yaml


@functools.cache
def _classes() -> tuple[type, type]:
    """(loader, dumper): libyaml's C classes when compiled in, else pure Python."""
    yaml = pyyaml()
    try:
        return yaml.CSafeLoader, yaml.CSafeDumper
    except AttributeError:  # pragma: no cover - depends on how PyYAML was built
        return yaml.SafeLoader, yaml.SafeDumper


def yaml_load(stream: str) -> Any:
    """``yaml.safe_load`` with the fastest available loader."""
    return pyyaml().load(stream, Loader=_classes()[0])


def yaml_load_all(stream: str) -> Iterator[Any]:
    """``yaml.safe_load_all`` with the fastest available loader."""
    return pyyaml().load_all(stream, Loader=_classes()[0])


def yaml_dump(data: Any, **kwargs: Any) -> str:
    """``yaml.safe_dump`` with the fastest available dumper."""
    return pyyaml().dump(data, Dumper=_classes()[1], **kwargs)


def yaml_dump_all(documents: Iterable[Any], **kwargs: Any) -> str:
    """``yaml.safe_dump_all`` with the fastest available dumper."""
    return pyyaml().dump_all(documents, Dumper=_classes()[1], **kwargs)
