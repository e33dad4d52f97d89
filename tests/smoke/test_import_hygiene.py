"""Import hygiene: a fresh ``insidejob sweep`` never loads numpy or a pool.

numpy backs only the bitset branch of ``EndpointUniverse.materialize`` and is
imported on the first call that needs it.  ``multiprocessing`` backs only the
sweep engine's process pool and is imported when that pool is spawned, so a
serial ``sweep`` or ``figure4b`` never loads it.  Each case runs in a fresh
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


#: Runs the CLI with the given arguments, then reports which pool modules
#: the run loaded, on the last line of output.
CLI_SCRIPT = """
import json, sys
from repro.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(
    name for name in ("multiprocessing", "concurrent.futures.process") if name in sys.modules
)))
"""


def _cli(*args: str) -> tuple[str, list[str]]:
    """(CLI output, pool modules loaded) of one run in a fresh interpreter."""
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
    output, modules = serial_sweep
    assert "Total" in output
    assert modules == []


def test_figure4b_loads_no_process_pool():
    output, modules = _cli("figure4b", "--sample", "3")
    assert "Dataset" in output
    assert modules == []


def test_pooled_sweep_prints_the_serial_table(serial_sweep):
    output, modules = _cli("sweep", "--sample", "3", "--workers", "2")
    assert output == serial_sweep[0]
    assert "multiprocessing" in modules
