#!/usr/bin/env python
"""Result-store garbage collector: classify rows with SQL, prune them in one transaction.

Usage (from the repository root)::

    PYTHONPATH=src python tools/store_gc.py <store-dir>           # dry run
    PYTHONPATH=src python tools/store_gc.py <store-dir> --apply   # delete

Scans the ``store.sqlite`` database of a :class:`repro.store.ResultStore`
directory and reports (dry run, the default) or deletes (``--apply``)
these classes of garbage:

* **corrupt rows** -- payload size or sha256 mismatch,
* **version-skewed rows** -- rows written under a different schema
  version; readers evict them lazily, the GC prunes them eagerly,
* **stale rows** (only with ``--max-age-days N``) -- rows written more
  than N days ago (the ``written_at`` column) regardless of health, for
  bounded-retention deployments,
* **legacy files** -- what a store from before the database left behind
  (``??/*.entry``, ``*.tmp*``, ``journal.jsonl*``) and damaged database
  files a store moved aside (``store.sqlite.damaged*``); the store ignores
  them all.

The rows are classified and deleted inside one ``BEGIN IMMEDIATE``
transaction, so a concurrent writer's fresh row is never judged by a stale
verdict.  Healthy current-schema rows and the sweep journal are never
touched.  Exit code 0 always; the CLI hint in ``repro sweep`` points here.
"""

from __future__ import annotations

import argparse
import hashlib
import sqlite3
import sys
import time
from contextlib import suppress
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.store import DB_FILENAME, SCHEMA_VERSION  # noqa: E402

#: One verdict per row, in the order a reader checks them.
CLASSIFY = """SELECT key, CASE WHEN schema != :schema THEN 'version_skew'
    WHEN size != length(payload) OR sha256 != sha256(payload) THEN 'corrupt'
    WHEN written_at < :cutoff THEN 'stale' ELSE 'healthy' END FROM entries ORDER BY key"""

#: Files the store never reads: a pre-database layout, set-aside damage.
LEGACY = ("??/*.entry", "??/*.tmp*", "*.tmp*", "journal.jsonl*", DB_FILENAME + ".damaged*")


def prune_rows(db: Path, max_age_days: float | None, apply: bool) -> list[tuple[str, str]]:
    """(key, verdict) of every row; deletes every non-healthy row with ``apply``."""
    cutoff = time.time() - max_age_days * 86400 if max_age_days is not None else None
    conn = sqlite3.connect(db, timeout=30.0, isolation_level=None)
    try:
        conn.create_function("sha256", 1, lambda blob: hashlib.sha256(blob).hexdigest())
        conn.execute("BEGIN IMMEDIATE")
        verdicts = conn.execute(CLASSIFY, {"schema": SCHEMA_VERSION, "cutoff": cutoff}).fetchall()
        doomed = [(key,) for key, verdict in verdicts if verdict != "healthy"]
        conn.executemany("DELETE FROM entries WHERE key = ?", doomed)
        conn.execute("COMMIT" if apply else "ROLLBACK")
    finally:
        conn.close()
    return verdicts


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (always 0)."""
    parser = argparse.ArgumentParser(description="prune corrupt/skewed/stale result-store rows")
    parser.add_argument("store", help="result-store directory to scan")
    parser.add_argument("--apply", action="store_true",
                        help="actually delete (default is a dry run that only reports)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="also prune healthy entries older than this many days")
    args = parser.parse_args(argv)
    root = Path(args.store)
    if not root.is_dir():
        print(f"store gc: no store at {root} (nothing to do)")
        return 0

    verb = "deleted" if args.apply else "would delete"
    verdicts: list[tuple[str, str]] = []
    if (root / DB_FILENAME).exists():
        try:
            verdicts = prune_rows(root / DB_FILENAME, args.max_age_days, args.apply)
        except sqlite3.Error as exc:
            print(f"store gc: cannot scan {root / DB_FILENAME}: {exc}", file=sys.stderr)
    legacy = sorted({path for pattern in LEGACY for path in root.glob(pattern)})
    for key, verdict in verdicts:
        if verdict != "healthy":
            print(f"{verb} [{verdict}] {key}")
    for path in legacy:
        print(f"{verb} [legacy] {path.relative_to(root)}")
        if args.apply:
            with suppress(OSError):
                path.unlink()
    for shard in root.glob("??") if args.apply else ():
        with suppress(OSError):
            shard.rmdir()  # an emptied shard directory of the old layout
    healthy = sum(verdict == "healthy" for _, verdict in verdicts)
    doomed = len(verdicts) - healthy + len(legacy)
    print(f"store gc ({'apply' if args.apply else 'dry run'}): {healthy} healthy entries kept, "
          f"{doomed} {'deleted' if args.apply else 'to delete'}")
    if not args.apply and doomed:
        print("  hint: re-run with --apply to delete them")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
