"""Bounded memos evict their oldest insertions through ``repro.memo``.

Each memo below once stopped inserting at its cap (or, for the observation
memo, evicted by recency).  At cap + 1 distinct keys every one must hold
exactly cap entries, keep the newest key and drop the oldest.  The compile
cache has its own bound test in ``tests/helm/test_template.py``.
"""

import pytest

from repro.cluster import session
from repro.cluster.session import ObservationMemo
from repro.helm import structured
from repro.k8s import labels, meta
from repro.probe.scanner import RuntimeObservation


def _module_memo(module, memo_name: str, maxsize_name: str, store):
    """A module-level memo, swapped for an empty dict for the test's
    duration; ``store(key)`` takes the memo's own miss path."""

    def setup(monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(module, memo_name, memo)
        return memo, getattr(module, maxsize_name), store

    return setup


def _observation_memo(monkeypatch):
    observations = ObservationMemo()

    def record(key: str) -> None:
        observations.record(key, RuntimeObservation(app=key, first=None, second=None))

    return observations._entries, session._OBSERVATION_MEMO_MAXSIZE, record


#: memo -> (setup returning (dict, cap, store one key), key pattern).
MEMOS = {
    "split-key": (
        _module_memo(structured, "_SPLIT_KEY_MEMO", "_SPLIT_KEY_MEMO_MAXSIZE", structured._split_key),
        "k{}: v",
    ),
    "plain-scalar": (
        _module_memo(structured, "_PLAIN_MEMO", "_PLAIN_MEMO_MAXSIZE", structured._resolve_plain),
        "p{}",
    ),
    "value-run": (
        _module_memo(structured, "_RUN_MEMO", "_RUN_MEMO_MAXSIZE", structured._resolve_run),
        "r{}",
    ),
    "label-key": (
        _module_memo(labels, "_VALID_KEYS", "_VALIDATION_MEMO_MAXSIZE", labels.validate_label_key),
        "k{}",
    ),
    "label-value": (
        _module_memo(labels, "_VALID_VALUES", "_VALIDATION_MEMO_MAXSIZE", labels.validate_label_value),
        "v{}",
    ),
    "dns-label": (
        _module_memo(meta, "_VALID_DNS_LABELS", "_VALIDATION_MEMO_MAXSIZE", meta.validate_dns_label),
        "n{}",
    ),
    "dns-subdomain": (
        _module_memo(
            meta, "_VALID_DNS_SUBDOMAINS", "_VALIDATION_MEMO_MAXSIZE", meta.validate_dns_subdomain
        ),
        "n{}",
    ),
    "observation": (_observation_memo, "o{}"),
}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_cap_plus_one_keys_keep_the_newest_cap_entries(name, monkeypatch):
    setup, key = MEMOS[name]
    memo, cap, store = setup(monkeypatch)
    for index in range(cap + 1):
        store(key.format(index))
    assert len(memo) == cap
    assert key.format(cap) in memo
    assert key.format(0) not in memo
