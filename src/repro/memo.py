"""The one eviction policy every bounded memo in the package uses.

A memo is a plain ``dict``.  A hit is a plain lookup at the call site
(``memo.get(key)``, ``key in memo``, ``memo[key]``): no function call and
no recency refresh, so the render path's lookups keep CPython's exact-dict
fast path (a ``dict`` subclass would lose it).  A miss stores through
:func:`remember`, which evicts the oldest insertions once the memo holds
more than its ``maxsize`` entries.  Every memo's key is its content (or,
for the cluster memos, an identity or epoch that moves with the content),
so eviction only ever costs a recompute, never a wrong answer.
``docs/architecture.md`` ("Bounded memos") lists each memo with its cap.
"""

from __future__ import annotations

from typing import TypeVar

K = TypeVar("K")
V = TypeVar("V")


def remember(memo: dict[K, V], key: K, value: V, maxsize: int) -> V:
    """Store ``value`` under ``key``, evict the oldest insertions past
    ``maxsize`` and return ``value``."""
    memo[key] = value
    while len(memo) > maxsize:
        memo.pop(next(iter(memo)), None)
    return value
