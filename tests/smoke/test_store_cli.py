"""CLI smoke: ``insidejob sweep`` degrades gracefully on a damaged store.

The contract under test mirrors ``actionable_message`` for cluster errors:
a corrupt or version-skewed store must never surface as a traceback or a
non-zero exit -- the sweep recomputes the affected charts, prints its
normal report, and emits exactly one ``StoreIntegrity`` hint on stderr
pointing at ``tools/store_gc.py``.  A database file SQLite rejects as a
whole runs through the same door: it is moved aside and the next sweep is
warm again.  A ``--store`` sweep opens with one ``delta:`` line, the
journal plan; a sweep without a store prints the Table 2 text alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.datasets import build_catalog
from repro.experiments import run_full_evaluation
from repro.store import DB_FILENAME
from tests.support import store_db

SAMPLE = 4
SRC = Path(__file__).resolve().parents[2] / "src"


def run_sweep(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli_main(["sweep", "--sample", str(SAMPLE), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_without_store_prints_table2_alone(capsys):
    code, out, err = run_sweep(capsys)
    assert code == 0
    # No store armed: no delta line, no store accounting, nothing else.
    table = run_full_evaluation(applications=build_catalog()[:SAMPLE]).summary.table2_text()
    assert out == table + "\n"
    assert err == ""


def test_sweep_cold_then_warm(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    code, out, _ = run_sweep(capsys, "--store", store_dir)
    assert code == 0
    assert out.startswith(f"delta: epoch 0 -> 1; {SAMPLE} added\n")
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    code, out, err = run_sweep(capsys, "--store", store_dir)
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert "StoreIntegrity" not in err  # healthy store stays silent


def test_second_store_sweep_holds_the_epoch_quietly(capsys, tmp_path):
    store_dir = str(tmp_path / "store")
    run_sweep(capsys, "--store", store_dir)
    code, out, err = run_sweep(capsys, "--store", store_dir)
    assert code == 0
    # The same sample is the same sweep identity: the journal continues.
    assert out.startswith(f"delta: epoch 1 -> 1; {SAMPLE} unchanged\n")
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert err == ""


def test_sweep_over_an_older_schema_reads_no_prior_state(capsys, tmp_path):
    # A store written at schema 1: its journal header is unreadable, so the
    # delta has no prior and every chart is added, not falsely unchanged.
    store_dir = tmp_path / "store"
    run_sweep(capsys, "--store", str(store_dir))
    store_db.execute(store_dir, "UPDATE journal_header SET schema = 1")
    store_db.execute(store_dir, "UPDATE entries SET schema = 1")
    code, out, err = run_sweep(capsys, "--store", str(store_dir))
    assert code == 0
    assert f"delta: epoch 0 -> 2; {SAMPLE} added" in out
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    assert "journal header unreadable" in err


@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_sweep_over_corrupt_store_hints_and_recomputes(capsys, tmp_path, damage):
    store_dir = tmp_path / "store"
    run_sweep(capsys, "--store", str(store_dir))
    # Damage every stored payload: a torn write and outright garbage both
    # must be detected by the verified read, never unpickled or served.
    payload = "substr(payload, 1, length(payload) / 2)" if damage == "truncate" else "x'006a756e6b'"
    store_db.execute(store_dir, f"UPDATE entries SET payload = {payload}")
    code, out, err = run_sweep(capsys, "--store", str(store_dir))
    assert code == 0  # never a traceback, never a failure
    assert "Total" in out  # the full report still prints
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    assert err.count("StoreIntegrity") == 1  # exactly one actionable hint
    assert "store_gc.py" in err
    # The corrupt entries were evicted and republished: warm again.
    code, out, err = run_sweep(capsys, "--store", str(store_dir))
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert "StoreIntegrity" not in err


#: ``insidejob sweep`` with the arguments it is given.
SWEEP_CHILD = "import sys; from repro.cli import main; sys.exit(main(['sweep', *sys.argv[1:]]))"


def run_sweep_process(store_dir: Path) -> tuple[int, str, str]:
    """One ``insidejob sweep --store`` in a fresh interpreter, so no connection
    this test process holds can mask what is on disk."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SWEEP_CHILD, "--sample", str(SAMPLE), "--store", str(store_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return completed.returncode, completed.stdout, completed.stderr


@pytest.mark.parametrize("damage", ["garbage", "half-truncated"])
def test_damaged_database_file_is_moved_aside(tmp_path, damage):
    store_dir = tmp_path / "store"
    code, out, _ = run_sweep_process(store_dir)
    assert code == 0
    assert f"store: 0 loaded, {SAMPLE} computed" in out
    database = store_dir / DB_FILENAME
    # Everything in the main file, then damage the file itself.
    store_db.query(store_dir, "PRAGMA wal_checkpoint(TRUNCATE)")
    blob = database.read_bytes()
    database.write_bytes(b"\x00garbage" * 512 if damage == "garbage" else blob[: len(blob) // 2])
    code, out, err = run_sweep_process(store_dir)
    assert code == 0  # never a traceback, never a failure
    # The journal plan read the damaged file first: it found no prior, and
    # the move-aside is counted in the store that the sweep then used.
    assert out.startswith(f"delta: epoch 0 -> 1; {SAMPLE} added\n")
    assert "Total" in out  # the full report still prints
    assert err.count("StoreIntegrity") == 1
    assert "1 corrupt entry" in err
    assert (store_dir / (DB_FILENAME + ".damaged")).exists()
    # The fresh database took every republished chart: warm again.
    code, out, err = run_sweep_process(store_dir)
    assert code == 0
    assert f"store: {SAMPLE} loaded, 0 computed" in out
    assert "StoreIntegrity" not in err
