"""Store GC smoke: dry run reports, ``--apply`` deletes, healthy survives.

``tools/store_gc.py`` is the cleanup path the ``StoreIntegrity`` CLI hint
points at.  The smoke test pins its contract: dry run by default (nothing
deleted), ``--apply`` prunes exactly the garbage classes (corrupt rows,
version-skewed rows, age-expired rows, legacy files of the old on-disk
layout) while healthy current-schema rows and the sweep journal are never
touched.  Rows of a kind no reader requests any more (the ``observation``
rows older stores promoted) are ``legacy`` garbage too.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

from repro import faults
from repro.store import KIND_RESULT, ResultStore, SweepJournal, read_prior_state, store_key
from tests.support import store_db

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_store_gc():
    spec = importlib.util.spec_from_file_location(
        "store_gc", REPO_ROOT / "tools" / "store_gc.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def populated_store(root: Path) -> tuple[ResultStore, list[str]]:
    store = ResultStore(root)
    keys = [store_key(KIND_RESULT, "gc-smoke", index) for index in range(4)]
    for index, key in enumerate(keys):
        assert store.write(key, {"index": index}, KIND_RESULT)
    return store, keys


def stored_keys(store: ResultStore) -> set[str]:
    return {key for (key,) in store_db.query(store.root, "SELECT key FROM entries")}


def test_dry_run_reports_without_deleting(tmp_path, capsys):
    store_gc = load_store_gc()
    store, keys = populated_store(tmp_path / "store")
    store._corrupt(keys[0], faults.CORRUPT_BITFLIP)
    legacy = store.root / keys[1][:2] / "dead.entry.tmp12345"
    legacy.parent.mkdir(exist_ok=True)
    legacy.write_bytes(b"torn writer leftovers")

    assert store_gc.main([str(store.root)]) == 0
    out = capsys.readouterr().out
    assert "would delete [corrupt]" in out
    assert "would delete [legacy]" in out
    # Dry run: everything is still on disk.
    assert legacy.exists()
    assert keys[0] in stored_keys(store)


def test_apply_prunes_garbage_keeps_healthy_and_journal(tmp_path, capsys):
    store_gc = load_store_gc()
    store, keys = populated_store(tmp_path / "store")
    journal = SweepJournal(store.root, store_key(KIND_RESULT, "gc-identity"))
    journal.begin()
    journal.record("org/app", "ok", keys[0])
    journal.close()
    store._corrupt(keys[0], faults.CORRUPT_TRUNCATE)
    store._corrupt(keys[1], faults.CORRUPT_VERSION)
    legacy = store.root / keys[2][:2] / "dead.entry.tmp12345"
    legacy.parent.mkdir(exist_ok=True)
    legacy.write_bytes(b"torn writer leftovers")

    assert store_gc.main([str(store.root), "--apply"]) == 0
    out = capsys.readouterr().out
    assert "deleted [corrupt]" in out
    assert "deleted [version_skew]" in out
    assert "deleted [legacy]" in out
    assert not legacy.exists()
    assert keys[0] not in stored_keys(store)
    assert keys[1] not in stored_keys(store)
    # Healthy entries and the journal survive; the store scans clean.
    assert keys[2] in stored_keys(store)
    assert keys[3] in stored_keys(store)
    assert set(read_prior_state(store.root).records) == {"org/app"}
    assert ResultStore(store.root).verify_all() == {"healthy": 2, "defective": 0}


def test_apply_prunes_legacy_observation_rows_only(tmp_path, capsys):
    store_gc = load_store_gc()
    store, keys = populated_store(tmp_path / "store")
    journal = SweepJournal(store.root, store_key(KIND_RESULT, "gc-identity"))
    journal.begin()
    journal.record("org/app", "ok", keys[0])
    journal.close()
    # What an older store promoted per chart: a healthy row no reader requests.
    legacy = store_key("observation", "gc-smoke")
    assert store.write(legacy, {"observation": True}, "observation")
    prior = read_prior_state(store.root)

    assert store_gc.main([str(store.root)]) == 0
    assert f"would delete [legacy] {legacy}" in capsys.readouterr().out
    assert legacy in stored_keys(store)

    assert store_gc.main([str(store.root), "--apply"]) == 0
    out = capsys.readouterr().out
    assert f"deleted [legacy] {legacy}" in out
    assert "4 healthy entries kept, 1 deleted" in out
    assert stored_keys(store) == set(keys)
    assert read_prior_state(store.root) == prior


def test_max_age_prunes_stale_healthy_entries(tmp_path, capsys):
    store_gc = load_store_gc()
    store, keys = populated_store(tmp_path / "store")
    ancient = time.time() - 10 * 86400
    store_db.execute(store.root, "UPDATE entries SET written_at = ? WHERE key = ?", (ancient, keys[0]))

    assert store_gc.main([str(store.root), "--max-age-days", "7", "--apply"]) == 0
    out = capsys.readouterr().out
    assert "deleted [stale]" in out
    assert keys[0] not in stored_keys(store)
    assert keys[1] in stored_keys(store)


def test_missing_store_directory_is_a_noop(tmp_path, capsys):
    store_gc = load_store_gc()
    assert store_gc.main([str(tmp_path / "nope")]) == 0
    assert "nothing to do" in capsys.readouterr().out
