#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, seeded inputs.

Run from the repository root::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 24 --trace 0

Workloads: ``cold_sweep``, ``watch_edits``, ``durable_store`` and
``netpol_probe`` (see ``perfbench/README.md``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer split from a traced
run and writes its spans under ``.perfbench_out/``.  Human-readable notes go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    # One core for the run and the children it times, so the speed readings
    # taken in this process describe the core the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        outcome = workload.run(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in outcome["lines"]:
        print(f"# {args.workload}: {line}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
