"""Direct access to a result store's SQLite database.

Tests use it to inspect rows and to damage them the way a bad disk, a
crashed writer or an older writer would, bypassing the store's own API.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from pathlib import Path

from repro.store import DB_FILENAME


def query(root: Path | str, sql: str, params: tuple = ()) -> list[tuple]:
    """Every row ``sql`` selects from the database of the store at ``root``."""
    with closing(sqlite3.connect(Path(root) / DB_FILENAME)) as conn:
        return conn.execute(sql, params).fetchall()


def execute(root: Path | str, sql: str, params: tuple = ()) -> None:
    """Run and commit one statement against the store at ``root``."""
    with closing(sqlite3.connect(Path(root) / DB_FILENAME)) as conn, conn:
        conn.execute(sql, params)
