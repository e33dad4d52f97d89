"""Set-up probe: what a fresh interpreter pays before its first operation.

Run by ``perfbench/run.py`` in a new process, from the repository root::

    python3 perfbench/probe.py catalog        # import + build_catalog()
    python3 perfbench/probe.py watch DIR      # import + first all-added watch round

Prints one JSON line: ``import_s`` and ``step_s`` (measured here) and
``ready_at`` (wall-clock time when the first operation could start), from
which the parent derives the set-up time including interpreter start-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro.cli  # noqa: F401  (the CLI's own import cost)
    from repro.datasets import build_catalog
    from repro.experiments import run_full_evaluation, watch_directory  # noqa: F401

    imported = time.perf_counter()
    if argv[0] == "catalog":
        build_catalog()
    else:
        result = watch_directory(argv[1], rounds=1, printer=lambda line: None)
        if result is None or result.failed:
            return 1
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - STARTED, "step_s": done - imported,
                      "ready_at": time.time()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
