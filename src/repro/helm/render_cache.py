"""Memoized chart rendering with verified shared-reference warm hits.

Rendering a chart -- template evaluation plus document assembly plus
typed-object construction -- dominates the catalogue sweep.
:class:`RenderCache` memoizes full dict-native (structured) render
results keyed on ``(chart fingerprint, release identity, override
fingerprint)``:

* **Key**: the chart fingerprint covers every input that affects rendering
  (:meth:`Chart.fingerprint`), and the override tree is key-sorted before
  it is fingerprinted (:func:`~repro.helm.values.sorted_tree`,
  :func:`~repro.helm.values.fingerprint_values`), so equal-but-not-identical
  override dicts and freshly rebuilt but content-identical charts hit the
  same entry.
* **Shared-reference hits**: entries hold the rendered documents and
  *content-interned sealed objects* (:mod:`repro.k8s.inventory`) directly,
  and every hit returns them by reference behind fresh top-level
  containers.  A warm hit therefore skips ``objects_from_dicts``, the
  namespace-defaulting walk and the validation walk entirely.  The price
  is a contract: cached render results are read-only.  Objects enforce it
  themselves (sealed objects raise on attribute assignment); documents and
  values are read-only by convention.  The reference these hits are
  proven against is the uncached, un-interned render
  (``render_chart(cached=False)``).
* **Corruption detection**: because entries live as mutable Python state,
  a convention violator (or an injected ``corrupt`` fault -- see
  :mod:`repro.faults`) could poison every later hit.  Each entry therefore
  stores a shape summary recorded at store time (container lengths plus
  each document's top-level key count), re-verified on every hit; a
  mismatch counts in ``corruptions``, evicts the entry and falls back to a
  fresh recompute instead of serving poisoned state.
* **Known fingerprints**: a caller that already holds the chart fingerprint
  (an application caches its own) passes it in and skips the re-hash.

The text path is the structured path's oracle and is never cached
(``render_chart(structured=False)`` renders it fresh).  The module-level
:func:`shared_render_cache` instance backs ``repro.helm.render_chart``;
per-experiment caches can be constructed directly for isolation.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from .. import faults
from ..memo import remember
from .chart import Chart
from .renderer import HelmRenderer, ReleaseInfo, RenderedChart
from .values import fingerprint_values, sorted_tree

_RENDER_CACHE_MAXSIZE = 2048


class RenderCache:
    """A bounded memo of fully rendered charts."""

    def __init__(self) -> None:
        self._renderer = HelmRenderer()
        #: key -> (release, values, documents, objects, sources, render_fp,
        #: check).  ``render_fp`` is the render fingerprint -- hashed once on
        #: the miss and replayed on every hit, so warm hits stay hash-free.
        self._entries: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        self.corruptions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/corruption/entry counters (the cache tests key on these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corruptions": self.corruptions,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.corruptions = 0

    # Rendering ----------------------------------------------------------------
    def render(
        self,
        chart: Chart,
        release: ReleaseInfo | None = None,
        overrides: Mapping[str, Any] | None = None,
        fingerprint: str | None = None,
    ) -> RenderedChart:
        """Render ``chart`` structured (or return a verified view of the cached render).

        The key's values component fingerprints the key-sorted
        ``overrides``: together with the chart fingerprint (which covers the
        chart's default values) it determines the merged values exactly,
        while letting cache hits skip the deep merge entirely.

        A hit re-verifies the entry's shape check first: a corrupted entry
        is evicted and recomputed rather than served.  A verified hit
        returns the cached components by reference (fresh top-level
        list/dict containers, shared sealed content).
        """
        release = release or ReleaseInfo(name=chart.name)
        fingerprint = fingerprint or chart.fingerprint()
        overrides = sorted_tree(overrides or {})
        key = (
            fingerprint,
            release.name,
            release.namespace,
            release.revision,
            release.is_install,
            release.service,
            fingerprint_values(overrides),
        )
        entry = self._entries.get(key)
        if entry is not None:
            faults.fault_point(faults.RENDER_CACHE_READ)
            cached_release, values, documents, objects, sources, render_fp, check = entry
            if faults.corruption_mode(faults.RENDER_CACHE_READ) is not None:
                _corrupt_entry(documents, objects)
            if _check_of(values, documents, objects, sources) == check:
                self.hits += 1
                return RenderedChart(
                    chart=chart,
                    release=cached_release,
                    values=dict(values),
                    documents=list(documents),
                    objects=list(objects),
                    sources=dict(sources),
                    render_fingerprint=render_fp,
                )
            # Poisoned entry: never serve it.  Evict and fall through to a
            # full recompute, which re-stores a pristine entry.
            self.corruptions += 1
            self._entries.pop(key, None)
        self.misses += 1
        render_fp = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        rendered = self._renderer.render_structured(chart, release, overrides, interned=True)
        rendered.render_fingerprint = render_fp
        # The entry keeps its own top-level containers, so callers that
        # append to the returned lists cannot grow the cached render.
        values = dict(rendered.values)
        documents = list(rendered.documents)
        objects = list(rendered.objects)
        sources = dict(rendered.sources)
        entry = (
            rendered.release,
            values,
            documents,
            objects,
            sources,
            render_fp,
            _check_of(values, documents, objects, sources),
        )
        remember(self._entries, key, entry, _RENDER_CACHE_MAXSIZE)
        return rendered


def _check_of(values, documents, objects, sources) -> tuple:
    """The integrity check stored with (and re-verified against) an entry.

    A shape summary -- container lengths plus each document's top-level key
    count -- cheap enough for every warm hit.
    """
    return (
        len(values),
        len(documents),
        len(objects),
        len(sources),
        tuple(len(doc) if isinstance(doc, dict) else -1 for doc in documents),
    )


def _corrupt_entry(documents: list, objects: list) -> None:
    """Damage a cached entry in place (the injected ``corrupt`` fault).

    Truncates the stored documents/objects -- the kind of damage a read-only
    contract violator would cause -- so the shape check must catch it.
    """
    if documents:
        documents.pop()
    else:
        documents.append({"corrupted": True})
    if objects:
        objects.pop()


_SHARED = RenderCache()


def shared_render_cache() -> RenderCache:
    """The process-wide cache behind ``repro.helm.render_chart``."""
    return _SHARED
