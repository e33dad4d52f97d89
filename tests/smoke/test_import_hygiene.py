"""Import hygiene: a fresh ``insidejob sweep`` never loads numpy, a pool, SQLite or PyYAML.

numpy backs only the bitset branch of ``EndpointUniverse.materialize`` and is
imported on the first call that needs it.  ``multiprocessing`` backs only the
sweep engine's process pool and is imported when that pool is spawned, so a
serial ``sweep`` or ``figure4b`` never loads it.  ``sqlite3`` backs only the
result store and is imported when a store first opens its database, so only
``sweep --store`` loads it.  PyYAML backs only the subset parser's
fallbacks, the text render path and ``analyze``'s manifest files, so
``sweep``, ``figure4b`` and a ``watch`` over catalogue charts never load
it, while ``analyze`` does.  Each case runs in a fresh
interpreter, because the test process itself may already hold these
modules.  The checks are on ``sys.modules`` and output only, never on
timings.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from repro.datasets import build_catalog
from tests.support.chart_dirs import write_chart_dir

SRC = Path(__file__).resolve().parents[2] / "src"

#: Sweeps three charts, then asks for the lateral-movement surface of an
#: attacker next to a chart whose strict policy hides its undeclared ports:
#: the allow mask is neither empty nor full, so ``materialize`` walks bits.
#: ``block`` makes ``import numpy`` fail, forcing the pure-Python walk.
SCRIPT = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from repro.cli import main
main(["sweep", "--sample", "3"])
after_sweep = sys.modules.get("numpy") is not None

from repro.cluster import Cluster
from repro.datasets import NETPOL_ENABLED_STRICT, InjectionPlan, build_application
from repro.helm import render_chart
from repro.probe import ReachabilityProbe

app = build_application(
    "hygiene", "Org", InjectionPlan(m1=2, netpol_mode=NETPOL_ENABLED_STRICT)
)
cluster = Cluster(name="hygiene", behaviors=app.behaviors)
cluster.install(render_chart(app.chart))
attacker = ReachabilityProbe(cluster).ensure_attacker()
surface = [repr(endpoint) for endpoint in cluster.reachable_from(attacker)]
print(json.dumps({
    "after_sweep": after_sweep,
    "after_query": sys.modules.get("numpy") is not None,
    "surface": surface,
}))
"""


def _run(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    return {mode: _run(mode) for mode in ("default", "block")}


def test_sweep_leaves_numpy_unloaded(runs):
    assert runs["default"]["after_sweep"] is False
    assert runs["block"]["after_sweep"] is False


def test_materialize_loads_numpy_on_first_use(runs):
    installed = importlib.util.find_spec("numpy") is not None
    assert runs["default"]["after_query"] is installed
    assert runs["block"]["after_query"] is False


def test_both_backends_give_the_same_surface(runs):
    surface = runs["default"]["surface"]
    assert surface
    assert runs["block"]["surface"] == surface


#: Runs the CLI with the given arguments, then reports which of the pool,
#: SQLite and PyYAML modules the run loaded, on the last line of output.
CLI_SCRIPT = """
import json, sys
from repro.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(
    name for name in ("multiprocessing", "concurrent.futures.process", "sqlite3", "yaml")
    if name in sys.modules
)))
"""


def _cli(*args: str) -> tuple[str, list[str]]:
    """(CLI output, pool, SQLite and PyYAML modules loaded) of one run in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    *output, modules = completed.stdout.strip().splitlines()
    return "\n".join(output), json.loads(modules)


@pytest.fixture(scope="module")
def serial_sweep() -> tuple[str, list[str]]:
    return _cli("sweep", "--sample", "3")


def test_serial_sweep_loads_no_process_pool(serial_sweep):
    """``modules`` also lists SQLite and PyYAML: neither loads."""
    output, modules = serial_sweep
    assert "Total" in output
    assert modules == []


@pytest.fixture(scope="module")
def figure4b() -> tuple[str, list[str]]:
    return _cli("figure4b", "--sample", "3")


def test_figure4b_loads_no_process_pool(figure4b):
    """``modules`` also lists SQLite and PyYAML: neither loads."""
    output, modules = figure4b
    assert "Dataset" in output
    assert modules == []


def test_storeless_runs_leave_sqlite3_unloaded(serial_sweep, figure4b):
    assert "sqlite3" not in serial_sweep[1]
    assert "sqlite3" not in figure4b[1]


def test_store_sweep_loads_sqlite3_on_first_use(serial_sweep, tmp_path):
    output, modules = _cli("sweep", "--sample", "3", "--store", str(tmp_path / "store"))
    assert "sqlite3" in modules
    assert "multiprocessing" not in modules
    delta, *table = output.splitlines()
    assert delta == "delta: epoch 0 -> 1; 3 added"
    assert table[: len(serial_sweep[0].splitlines())] == serial_sweep[0].splitlines()


def test_pooled_sweep_prints_the_serial_table(serial_sweep):
    output, modules = _cli("sweep", "--sample", "3", "--workers", "2")
    assert output == serial_sweep[0]
    assert "multiprocessing" in modules


def test_watch_over_catalogue_charts_leaves_pyyaml_unloaded(tmp_path):
    # This process writes the charts (dump_values is PyYAML's dumper); the
    # watch runs fresh, so only its own chart loading shows.
    for app in build_catalog()[:3]:
        write_chart_dir(tmp_path, app)
    output, modules = _cli("watch", str(tmp_path), "--rounds", "1", "--interval", "0")
    assert output.startswith("round 1: 3 charts (3 added)")
    assert "yaml" not in modules


def test_analyze_loads_pyyaml_on_first_use(tmp_path):
    manifest = tmp_path / "manifests.yaml"
    manifest.write_text(
        yaml.safe_dump_all([
            {"apiVersion": "v1", "kind": "Service", "metadata": {"name": "web"},
             "spec": {"selector": {"app": "web"}, "ports": [{"port": 80}]}},
        ]),
        encoding="utf-8",
    )
    output, modules = _cli("analyze", str(manifest))
    assert "[M5D]" in output  # the selector matches no pod
    assert "yaml" in modules
