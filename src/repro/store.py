"""Crash-safe content-addressed result store with a resumable sweep journal.

The evaluation pipeline is deterministic in content: a chart's evaluation
report and label surface (:class:`repro.k8s.LabelSurface`, what the
cluster-wide M4* pass reads of its objects) are a pure function of its
identity, its content fingerprint, the behavior registry and the analyzer
settings.  A result row holds the pre-M4* report, the surface and the
attempt count, never the chart's objects.  This module
turns that determinism into durability -- a :class:`ResultStore` maps
content keys (sha256 over the canonical inputs, see :func:`store_key`) to
verified stored results, so a crashed or interrupted sweep loses nothing
that already completed and a warm store turns a full sweep into a
read-mostly pass.  Results are the only kind the store holds: runtime
observations are memoized in process only
(:class:`repro.cluster.session.ObservationMemo`).

Everything a store holds lives in one SQLite database per store root,
``store.sqlite``, in WAL mode with ``synchronous=FULL``: an ``entries``
table of pickled artifacts plus the sweep journal's ``journal_header`` and
``journal`` tables.  Four contracts, in order of importance:

**Crash safety.**  A commit is the only way anything becomes visible, so a
reader never observes a partial entry, no matter where a writer dies.  A
computed chart's result entry and its journal record always commit in one
transaction, never one without the other.  A durable sweep commits its
computed charts in time-bounded *groups* (:data:`GROUP_COMMIT_S`), so the
group commit is the crash point: a writer killed mid-sweep loses the
charts staged since its last commit, and the next sweep recomputes them.
:func:`atomic_write_bytes` / :func:`atomic_write_text` keep the
temp-file-fsync-rename discipline for plain files (the benchmark baseline
uses it).

**Verified reads.**  Every row carries its kind, schema version, payload
size and payload sha256; a read checks all four before decoding, and
decodes through an allow-listed unpickler that admits only classes defined
under ``repro.k8s``, ``repro.probe`` and ``repro.core.findings`` -- the
store never executes what it reads.  A defective row is *counted in*
:meth:`ResultStore.stats` (corruption or version skew), *evicted, and
recomputed by the caller*.  A file SQLite rejects outright is moved aside
(``store.sqlite.damaged``), counted as corruption and replaced by a fresh
database.  A store failure (read or write) is never fatal to the
computation it serves.

**Concurrent writers.**  Pool workers and concurrent sweeps share the
database under a busy timeout.  A store opens its connection in the
process that uses it, checked by pid, because pool workers fork with their
parent's store objects.  Content addressing makes writes idempotent: two processes
producing the same key produce equivalent values.

**Nothing is created early.**  ``ResultStore(root)`` creates only the
directory; the first write creates the database, and no read does.

:class:`SweepJournal` adds per-sweep bookkeeping: a header pinning the
sweep identity (catalogue + settings + schema) and a monotonically
increasing *epoch* -- a sweep whose identity the header holds continues
it, any other sweep rotates the journal and advances it -- plus one sealed
record per chart, tagged with its epoch (readers see only the header's
epoch).  Records optionally carry the per-chart classifier fingerprints
(chart / values / templates / behaviours / settings), which is what lets
:func:`repro.experiments.delta.journal_plan` classify *why* a chart needs
recomputation; a record without them reads as ``added``.
:meth:`SweepJournal.begin` returns the generation it found, and
:func:`read_prior_state` reads the same of a store directory without a
sweep.

Fault injection: :data:`repro.faults.STORE_READ` fires at the top of every
lookup (``corrupt`` kinds damage the stored row first -- truncation,
bit-flip or version skew per :func:`repro.faults.corruption_mode`);
:data:`repro.faults.STORE_WRITE` fires after a commit's statements and before
its ``COMMIT``, once under the fault scope of each result row it publishes,
so a ``kill`` fault aimed at one chart is a genuine uncommitted crash of the
whole group that holds it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
import threading
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import faults

#: Entry-format constants.  ``SCHEMA_VERSION`` governs compatibility: a row
#: whose schema differs from the reader's is *version skew* -- the entry is
#: evicted and recomputed (and ``tools/store_gc.py`` prunes them).  Version
#: 2 rows hold a label surface where version 1 rows held an inventory.
MAGIC = "repro-store"
SCHEMA_VERSION = 2

#: The entry kind of a chart result (recorded per row, checked on read);
#: ``tools/store_gc.py`` prunes rows of any other kind.
KIND_RESULT = "result"

#: The database file of a store root.
DB_FILENAME = "store.sqlite"

#: How long a connection waits for another process's write transaction.
_BUSY_TIMEOUT_S = 30.0

#: How long a durable sweep holds a computed chart before committing it:
#: the group of charts staged since the last commit is published once its
#: oldest chart has waited this long (and when the sweep ends).  Read at
#: call time.
GROUP_COMMIT_S = 0.05

#: SQLite's verdicts on a file that is not, or no longer, a database.
_DAMAGED = frozenset({"SQLITE_NOTADB", "SQLITE_CORRUPT"})

#: Payloads decode only into classes defined under these packages.
_TRUSTED = ("repro.k8s", "repro.probe", "repro.core.findings")
_TRUSTED_PREFIXES = tuple(package + "." for package in _TRUSTED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, kind TEXT NOT NULL,
    schema INTEGER NOT NULL, sha256 TEXT NOT NULL, size INTEGER NOT NULL,
    payload BLOB NOT NULL, written_at REAL NOT NULL);
CREATE TABLE IF NOT EXISTS journal_header (epoch INTEGER PRIMARY KEY,
    identity TEXT NOT NULL, schema INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS journal (epoch INTEGER NOT NULL, chart TEXT NOT NULL,
    record TEXT NOT NULL, seal TEXT NOT NULL, PRIMARY KEY (epoch, chart));"""
_SELECT_ENTRY = "SELECT kind, schema, sha256, size, payload, written_at FROM entries"
_SELECT_KEY = _SELECT_ENTRY + " WHERE key = ?"
_INSERT_ENTRY = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?, ?)"
_INSERT_RECORD = "INSERT OR REPLACE INTO journal VALUES (?, ?, ?, ?)"


def store_key(kind: str, *parts: object) -> str:
    """Derive the content key (sha256 hex) for an entry.

    ``parts`` must be primitives -- strings, ints, bools, ``None`` and
    nested tuples thereof -- whose ``repr`` is deterministic across
    processes and platforms; content fingerprints such as
    :meth:`repro.helm.Chart.fingerprint` enter as their hex strings.  The
    key deliberately excludes the schema version: version skew must be
    *detectable* at read time via the row, not silently keyed away.
    """
    material = repr((MAGIC, kind, parts))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    with suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file + fsync + rename.

    The temp file lives in the target directory (``os.replace`` must not
    cross filesystems) and is fsynced before the rename, so a crash at any
    point leaves either the old content or the new -- never a torn file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    _fsync_directory(target.parent)


def atomic_write_text(path: Path | str, text: str, encoding: str = "utf-8") -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


class _Database:
    """One connection per process to a store's database file.

    The connection opens on first use, and again in a process that
    inherited this object through a fork: pool workers fork with their
    parent's store objects, and a SQLite connection must not cross a fork,
    so the inherited one is kept in ``_forked``, never used or closed.
    ``staged`` holds statements that ride on this object's next commit --
    how a journal record joins its chart's result entry in one transaction,
    and how a sweep's group of charts shares one -- and ``publishes`` the
    fault scope of each result row among them.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.staged: list[tuple[str, tuple]] = []
        self.publishes: list[tuple[str | None, int]] = []
        #: Damaged files moved aside through this object.
        self.damaged = 0
        self._conn: Any = None
        self._pid = os.getpid()
        self._forked: list[Any] = []
        self._lock = threading.RLock()

    def _own(self) -> None:
        """Drop what this process inherited from its parent (see above)."""
        if self._pid != os.getpid():
            self._forked.append(self._conn)
            self._conn, self._pid, self.staged, self.publishes = None, os.getpid(), [], []

    def _connect(self, create: bool) -> Any:
        self._own()
        if self._conn is None and (create or self.path.exists()):
            import sqlite3  # on first use: a store-less run never loads it

            conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None,
                                   check_same_thread=False)
            try:
                _enable_wal(conn)
                conn.execute("PRAGMA synchronous=FULL")
                conn.executescript(_SCHEMA)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def run(self, work: Callable[[Any], Any], create: bool = False) -> Any:
        """``work(connection)``; ``None`` when there is no database to use.

        Without ``create`` an absent database stays absent.  When SQLite
        rejects the file itself, it is moved aside and ``work`` runs once
        more against a fresh database.  Any other error propagates.
        """
        with self._lock:
            try:
                conn = self._connect(create)
                return None if conn is None else work(conn)
            except Exception as exc:
                if getattr(exc, "sqlite_errorname", None) not in _DAMAGED:
                    raise
            self._move_aside()
            conn = self._connect(create)
            return None if conn is None else work(conn)

    def transact(self, work: Callable[[Any], Any], fault_site: str | None = None) -> Any:
        """Commit the staged statements plus ``work(connection)`` as one
        ``BEGIN IMMEDIATE`` transaction, creating the database if needed.

        ``fault_site`` fires after the statements and before ``COMMIT``,
        once under the fault scope of each staged publish.  A failure rolls
        back, loses the staged statements with it, and propagates.
        """
        with self._lock:
            self._own()
            staged, self.staged = self.staged, []
            publishes, self.publishes = self.publishes, []

            def attempt(conn: Any) -> Any:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    for sql, params in staged:
                        conn.execute(sql, params)
                    value = work(conn)
                    if fault_site is not None:
                        for scope in publishes:
                            with faults.fault_scope(*scope):
                                faults.fault_point(fault_site)
                    conn.execute("COMMIT")
                except BaseException:
                    if conn.in_transaction:
                        conn.execute("ROLLBACK")
                    raise
                return value

            return self.run(attempt, create=True)

    def stage(self, sql: str, params: tuple, publish: bool = False) -> None:
        """Queue one statement for the next :meth:`transact`.

        A ``publish`` (a result row) keeps the ambient fault scope, under
        which that transaction's ``fault_site`` fires.
        """
        with self._lock:
            self._own()
            self.staged.append((sql, params))
            if publish:
                self.publishes.append(faults.current_scope())

    def close(self) -> None:
        """Close this process's connection, if open."""
        with self._lock:
            self._own()
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _move_aside(self) -> None:
        with suppress(Exception):
            self._conn.close()
        self._conn = None
        for suffix in ("", "-wal", "-shm"):
            with suppress(OSError):
                os.replace(f"{self.path}{suffix}", f"{self.path}.damaged{suffix}")
        self.damaged += 1


def _enable_wal(conn: Any) -> None:
    """Switch the database to WAL mode.

    Processes creating one database at once race for the switch, and SQLite
    answers the losers with ``SQLITE_BUSY`` at once, without waiting out the
    busy timeout: retry until that timeout would have run out.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except Exception as exc:
            if getattr(exc, "sqlite_errorname", None) != "SQLITE_BUSY" or time.monotonic() > deadline:
                raise
        time.sleep(0.01)


class _TrustedUnpickler(pickle.Unpickler):
    """Decodes only classes defined under :data:`_TRUSTED`; refuses every
    other global, builtins included, so a payload cannot run code."""

    def find_class(self, module: str, name: str) -> Any:
        found = super().find_class(module, name) if _trusted(module) else None
        if not isinstance(found, type) or not _trusted(found.__module__):
            raise pickle.UnpicklingError(f"refused global {module}.{name}")
        return found


def _trusted(module: str) -> bool:
    return module in _TRUSTED or module.startswith(_TRUSTED_PREFIXES)


def _defect(row: tuple, kind: str | None) -> str | None:
    """Why an ``entries`` row fails verification, or ``None`` when healthy.

    ``schema`` (a row not at :data:`SCHEMA_VERSION`) is the only reason
    counted as version skew rather than corruption; the others are
    ``kind``, ``size`` and ``digest``.
    """
    row_kind, row_schema, digest, size, payload, _ = row
    if row_schema != SCHEMA_VERSION:
        return "schema"
    if kind is not None and row_kind != kind:
        return "kind"
    if not isinstance(payload, bytes) or size != len(payload):
        return "size"
    if digest != hashlib.sha256(payload).hexdigest():
        return "digest"
    return None


class ResultStore:
    """Content-addressed store of pickled evaluation artifacts.

    Entries are rows of ``root/store.sqlite``.  :meth:`read` verifies every
    row (schema version, kind, size, sha256) and decodes only verified
    payloads through the allow-listed unpickler; a defective row is
    counted, evicted and reported as a miss so the caller recomputes and
    republishes.  A publish is two steps: :meth:`stage` queues a row and
    :meth:`commit` publishes everything staged in one transaction
    (:meth:`write` is both).  Neither *ever raises* -- a failed publish
    rolls back, is counted in :meth:`stats`, and the computation proceeds
    unstored.

    Instances are cheap; the database is the shared contract.  Counters are
    per-instance (pool workers each see their own).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._db = _Database(self.root / DB_FILENAME)
        self._lock = threading.Lock()
        self.hits = self.misses = self.writes = self.write_failures = 0
        self.read_errors = self.corruptions = self.version_skew = self.evictions = 0

    def read(self, key: str, kind: str | None = None) -> Any:
        """Return the verified value stored under ``key``, or ``None``.

        ``None`` covers every non-success uniformly -- absent entry,
        database error, corruption, version skew, kind mismatch, a refused
        payload -- because the caller's move is always the same:
        recompute, then :meth:`write`.  Defective rows are evicted so the
        next sweep does not pay the verification failure again; the
        distinction between miss, corruption and skew is kept in
        :meth:`stats`.
        """
        try:
            faults.fault_point(faults.STORE_READ)
            row = self._db.run(lambda conn: conn.execute(_SELECT_KEY, (key,)).fetchone())
            mode = faults.corruption_mode(faults.STORE_READ) if row is not None else None
            if mode is not None:
                row = self._corrupt(key, mode)
        except Exception:
            with self._lock:
                self.read_errors += 1
            return None
        if row is None:
            with self._lock:
                self.misses += 1
            return None
        reason = _defect(row, kind)
        if reason is None:
            try:
                value = _TrustedUnpickler(io.BytesIO(row[4])).load()
            except Exception:
                reason = "payload"
        if reason is not None:
            self._evict(key, row, reason)
            return None
        with self._lock:
            self.hits += 1
        return value

    def write(self, key: str, value: Any, kind: str) -> bool:
        """Publish ``value`` under ``key`` in one commit; True on success.

        :meth:`stage`, then :meth:`commit`: whatever else is staged on the
        database commits with it.  The store must never turn a successful
        computation into a failure.
        """
        return self.stage(key, value, kind) and self.commit()

    def stage(self, key: str, value: Any, kind: str) -> bool:
        """Queue ``value`` under ``key`` for the next :meth:`commit`; True when queued.

        Serialization is inside the failure guard: a value that cannot be
        pickled counts a write failure and queues nothing.  The row keeps
        the ambient fault scope, under which :meth:`commit` fires the
        ``store.write`` site for it.
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            with self._lock:
                self.write_failures += 1
            return False
        digest = hashlib.sha256(payload).hexdigest()
        row = (key, kind, SCHEMA_VERSION, digest, len(payload), payload, time.time())
        self._db.stage(_INSERT_ENTRY, row, publish=True)
        return True

    def commit(self) -> bool:
        """Publish everything staged on the database in one commit; True on success.

        The staged rows, and any journal records staged with them, commit
        in one ``BEGIN IMMEDIATE`` transaction; with nothing staged no
        transaction opens.  The ``store.write`` fault site fires after the
        statements and before ``COMMIT``, once under each staged row's fault
        scope.  Any exception rolls the whole transaction back, counts one
        write failure per staged row and returns False.
        """
        with self._db._lock:
            self._db._own()
            rows = len(self._db.publishes)
            if not self._db.staged:
                return True
            try:
                self._db.transact(lambda conn: None, faults.STORE_WRITE)
                committed = True
            except Exception:
                committed = False
        with self._lock:
            if committed:
                self.writes += rows
            else:
                self.write_failures += rows
        return committed

    def _evict(self, key: str, row: tuple, reason: str) -> None:
        with self._lock:
            if reason == "schema":
                self.version_skew += 1
            else:
                self.corruptions += 1
            self.evictions += 1
        # Only the row this read judged: a concurrent writer's fresh row
        # under the same key differs in digest or write time and stays.
        with suppress(Exception):
            self._db.transact(lambda conn: conn.execute(
                "DELETE FROM entries WHERE key = ? AND sha256 = ? AND written_at = ?",
                (key, row[2], row[5]),
            ))

    def _corrupt(self, key: str, mode: str) -> tuple | None:
        """Damage the stored row of ``key`` per a chaos corruption mode
        (:data:`repro.faults.CORRUPTION_MODES`); return the damaged row."""

        def damage(conn: Any) -> tuple | None:
            row = conn.execute(_SELECT_KEY, (key,)).fetchone()
            if row is None:
                return None
            kind, schema, digest, size, payload, written_at = row
            half = len(payload) // 2
            if mode == faults.CORRUPT_TRUNCATE:
                payload = payload[: max(half, 1)]
            elif mode == faults.CORRUPT_BITFLIP:
                payload = payload[:half] + bytes([payload[half] ^ 0x01]) + payload[half + 1 :]
            else:
                schema += 1
            conn.execute("UPDATE entries SET schema = ?, payload = ? WHERE key = ?", (schema, payload, key))
            return kind, schema, digest, size, payload, written_at

        return self._db.transact(damage)

    def verify_all(self) -> dict[str, int]:
        """Scan every row; report healthy/defective counts without evicting.

        Used by tests to prove no torn entry is ever visible: a store that
        only ever saw committed writes scans clean no matter how many
        writers died.
        """
        reasons = self._db.run(
            lambda conn: [_defect(row, None) for row in conn.execute(_SELECT_ENTRY)]
        ) or []
        defects = Counter(reason for reason in reasons if reason is not None)
        return {"healthy": reasons.count(None), "defective": sum(defects.values()), **defects}

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits, misses, writes, failures, defects, evictions.

        ``corruptions`` includes every damaged database file this store (or
        its journal) moved aside.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "write_failures": self.write_failures,
                "read_errors": self.read_errors,
                "corruptions": self.corruptions + self._db.damaged,
                "version_skew": self.version_skew,
                "evictions": self.evictions,
            }


def _seal(epoch: int, record: str) -> str:
    """A journal record's seal: a digest over its epoch and JSON text."""
    return hashlib.sha256(f"{epoch}:{record}".encode("utf-8")).hexdigest()[:16]


def _read_journal(conn: Any) -> tuple[tuple | None, dict[str, dict[str, Any]], int]:
    """(live header row, that epoch's sealed records by chart, dropped records).

    The header with the highest epoch is live; only records of its epoch
    are visible, one per chart (the table's key makes them last-wins).  A
    record whose seal fails is dropped and counted.
    """
    header = conn.execute("SELECT * FROM journal_header ORDER BY epoch DESC LIMIT 1").fetchone()
    records: dict[str, dict[str, Any]] = {}
    dropped = 0
    if header is not None:
        rows = conn.execute("SELECT chart, record, seal FROM journal WHERE epoch = ?", (header[0],))
        for chart, text, seal in rows:
            try:
                record = json.loads(text) if seal == _seal(header[0], text) else None
            except ValueError:
                record = None
            if isinstance(record, dict) and record.get("chart") == chart:
                records[chart] = record
            else:
                dropped += 1
    return header, records, dropped


class SweepJournal:
    """Per-sweep completion log in the database of a :class:`ResultStore`.

    ``root`` is the store itself or its directory; a journal opened on the
    store shares its connection, which is what lets a computed chart's
    record commit with its result entry (see :meth:`stage`).  The
    header pins the *sweep identity* -- a digest over the ordered
    catalogue result keys -- so a sweep continues the journal only over
    the same catalogue and settings.  Each record stores one
    chart's completion (key, status, attempts, source) under the header's
    epoch, sealed with a digest so a damaged record is dropped rather than
    trusted.  Records of a superseded epoch stay invisible: a sweep still
    writing after another one rotated the journal cannot pollute the new
    generation.  Rotation keeps the superseded generation and drops older
    ones.
    """

    #: The *expected* rotation reason: a sweep over a changed catalogue or
    #: settings starts a new generation.  :func:`store_hint` treats every
    #: other reason as degradation worth a hint.
    ROTATED_IDENTITY = "journal identity mismatch (catalogue or settings changed)"

    def __init__(self, root: ResultStore | Path | str, identity: str) -> None:
        store = root if isinstance(root, ResultStore) else None
        self.root = store.root if store is not None else Path(root)
        self.identity = identity
        self.rotated_reason: str | None = None
        self.dropped_lines = 0
        #: Journal commits that failed; the records they carried are lost.
        self.failures = 0
        #: The sweep epoch this journal is writing under: 0 until
        #: :meth:`begin`, then the prior header's epoch, unchanged when the
        #: journal is continued and + 1 when it is rotated.
        self.epoch = 0
        #: A store's journal shares the store's connection, so a record can
        #: commit in the same transaction as the store's next write.
        self._db = store._db if store is not None else _Database(self.root / DB_FILENAME)

    def begin(self) -> PriorState:
        """Open the journal; return the prior state it found there.

        One ``BEGIN IMMEDIATE`` transaction reads the live header and
        settles :attr:`epoch`.  A header with this schema and identity is
        continued: the epoch holds, and the records returned are the ones
        the sweep continues.  A different schema or identity (catalogue or
        settings) rotates the journal to a new epoch and starts clean --
        :attr:`rotated_reason` records why, so the CLI can surface one
        hint instead of a traceback -- and the state returned is the
        generation rotated away.  Either way it is what
        :func:`read_prior_state` reads, so a sweep classifies its charts
        against it without reading the journal again
        (:func:`repro.experiments.delta.journal_plan`).  A failed begin is
        counted in :attr:`failures`, leaves the journal off and finds no
        prior state.
        """

        def settle(conn: Any) -> tuple[int, str | None, PriorState, int]:
            found = _read_journal(conn)
            header, _, dropped = found
            epoch, identity, schema = header or (0, None, None)
            if header is None:
                reason = None
            elif schema != SCHEMA_VERSION:
                reason = "journal header unreadable"
            elif identity != self.identity:
                reason = self.ROTATED_IDENTITY
            else:
                return epoch, None, _prior_state(found), dropped
            conn.execute(
                "INSERT INTO journal_header VALUES (?, ?, ?)", (epoch + 1, self.identity, SCHEMA_VERSION)
            )
            conn.execute("DELETE FROM journal_header WHERE epoch < ?", (epoch,))
            conn.execute("DELETE FROM journal WHERE epoch < ?", (epoch,))
            return epoch + 1, reason, _prior_state(found), dropped

        try:
            self.epoch, self.rotated_reason, prior, self.dropped_lines = self._db.transact(settle)
        except Exception:
            self.failures += 1
            return PriorState(epoch=0, identity=None, records={})
        return prior

    def record(
        self,
        chart: str,
        status: str,
        result_key: str = "",
        attempts: int = 1,
        source: str = "computed",
        fingerprints: dict[str, str] | None = None,
    ) -> None:
        """Commit one sealed per-chart completion record: :meth:`stage`, then :meth:`commit`."""
        self.stage(chart, status, result_key, attempts, source, fingerprints)
        self.commit()

    def stage(
        self,
        chart: str,
        status: str,
        result_key: str = "",
        attempts: int = 1,
        source: str = "computed",
        fingerprints: dict[str, str] | None = None,
    ) -> None:
        """Queue one sealed per-chart completion record for the next commit.

        The next commit this process makes on the database carries it: a
        durable sweep stages a computed chart's record beside its result
        row (:meth:`ResultStore.stage`), so entry and record share one
        transaction, and the load phase's records commit together.
        ``fingerprints`` (optional) attaches the chart's delta-classifier
        fingerprints -- chart / values / templates / behaviours / settings, see
        :func:`repro.experiments.evaluation.classifier_fingerprints` -- so a
        later delta sweep can explain *which* input moved.  The delta
        ignores a record without them: its chart classifies as ``added``.
        Before :meth:`begin` settles an epoch nothing is queued.
        """
        if not self.epoch:
            return
        record: dict[str, Any] = {"chart": chart, "status": status, "result": result_key,
                                  "attempts": attempts, "source": source}
        if fingerprints:
            record["fp"] = dict(fingerprints)
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._db.stage(_INSERT_RECORD, (self.epoch, chart, text, _seal(self.epoch, text)))

    def commit(self) -> None:
        """Commit what is staged on the database in one transaction.

        With nothing staged no transaction opens.  A failure loses the
        staged statements and counts in :attr:`failures`.
        """
        if not self._db.staged:
            return
        try:
            self._db.transact(lambda conn: None)
        except Exception:
            self.failures += 1

    def close(self) -> None:
        """Commit anything still staged; the journal holds no other resource."""
        self.commit()


@dataclass(frozen=True)
class PriorState:
    """The epoch-tagged prior state a store's journal records.

    ``records`` holds the *live* (last-wins) chart record per chart key --
    rotated and continued journals alike keep exactly one record per
    chart.  ``epoch`` is the journal generation those records were written
    under (0 when no journal exists), ``identity`` the sweep identity
    digest the header pinned.
    """

    epoch: int
    identity: str | None
    records: dict[str, dict[str, Any]]
    dropped_lines: int = 0

    def completed(self) -> dict[str, dict[str, Any]]:
        """The live records of charts that finished successfully."""
        return {chart: rec for chart, rec in self.records.items() if rec.get("status") == "ok"}


def _prior_state(found: tuple | None) -> PriorState:
    """What :func:`_read_journal` found, as prior state; a header at another schema holds none."""
    header, records, dropped = found or (None, {}, 0)
    if header is None or header[2] != SCHEMA_VERSION:
        return PriorState(epoch=0, identity=None, records={})
    epoch, identity, _ = header
    return PriorState(epoch=epoch, identity=identity, records=records, dropped_lines=dropped)


def read_prior_state(root: Path | str) -> PriorState:
    """Read the journal of the store directory ``root`` as prior state.

    This is the read-only side of :class:`SweepJournal`: it never writes,
    never rotates, and never creates the database; a missing or unreadable
    journal reads as no prior state (records that fail their seal are
    counted in ``dropped_lines``).  A header at another schema is
    unreadable, as :meth:`SweepJournal.begin` rotates it.  A sweep does
    not call it: :meth:`SweepJournal.begin` returns the same state as it
    opens the journal.
    """
    database = _Database(Path(root) / DB_FILENAME)
    try:
        found = database.run(_read_journal)
    except Exception:
        found = None
    finally:
        database.close()
    return _prior_state(found)


#: Degradation counters :func:`store_hint` names: (field, one, several).
_PROBLEMS = (
    ("corruptions", "corrupt entry", "corrupt entries"),
    ("version_skew", "version-skewed entry", "version-skewed entries"),
    ("read_errors", "unreadable entry", "unreadable entries"),
    ("write_failures", "failed write", "failed writes"),
    ("journal_failures", "failed journal commit", "failed journal commits"),
)


def store_hint(stats: dict[str, int], root: Path | str, rotated: str | None = None) -> str | None:
    """One actionable-message-style hint line for a degraded store, or None.

    Mirrors :func:`repro.cluster.errors.actionable_message` formatting so
    CLI output stays uniform: a one-line diagnosis plus an indented hint.
    Returned only when the sweep actually degraded (corruption, version
    skew, read/write errors, failed journal commits or an *unexpected*
    journal rotation -- the :attr:`SweepJournal.ROTATED_IDENTITY` rotation
    of a sweep over a changed catalogue is not a problem); a healthy store
    stays silent.
    """
    problems = [
        f"{stats[field]} {noun if stats[field] == 1 else plural}"
        for field, noun, plural in _PROBLEMS
        if stats.get(field)
    ]
    if rotated and rotated != SweepJournal.ROTATED_IDENTITY:
        problems.append(f"journal rotated ({rotated})")
    if not problems:
        return None
    return (
        f"StoreIntegrity: {', '.join(problems)} at {root}; affected charts were recomputed\n"
        f"  hint: results are unaffected; run 'python tools/store_gc.py {root} --apply' to prune stale entries"
    )
