#!/usr/bin/env python
"""Documentation gate: every module (and key entry point) must be documented.

Usage (from the repository root)::

    PYTHONPATH=src python tools/doc_gate.py

Fails (exit code 1) when:

* any module under ``src/repro/**`` lacks a module docstring, or
* any *public entry point* -- a public class, function or method -- in the
  documented-surface modules (``DOCUMENTED_SURFACE``: ``repro/helm/``,
  ``repro/cluster/session.py``, ``repro/core/analyzer.py``,
  ``repro/core/cluster_wide.py``, ``repro/faults.py``, ``repro/memo.py``,
  ``repro/experiments/delta.py``, ``repro/experiments/evaluation.py``,
  ``repro/experiments/netpol_impact.py``, ``repro/probe/reachability.py``
  and ``repro/store.py``) lacks a docstring.

Private names (leading underscore), dunder methods other than ``__init__``
-- whose contract the class docstring owns -- and nested defs are exempt.
The gate is pure AST inspection: it never imports the package, so it runs
anywhere the checkout does.  It sits next to ``tools/coverage_gate.py`` in
the inner-loop checks (see README) and is exercised by the smoke tests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Modules whose public classes/functions/methods must carry docstrings.
DOCUMENTED_SURFACE = (
    "helm/",
    "cluster/session.py",
    "core/analyzer.py",
    "core/cluster_wide.py",
    "faults.py",
    "memo.py",
    "experiments/delta.py",
    "experiments/evaluation.py",
    "experiments/netpol_impact.py",
    "probe/reachability.py",
    "store.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _missing_entry_points(tree: ast.Module, relative: str) -> list[str]:
    missing: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                missing.append(f"{relative}:{node.lineno} def {node.name}")
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                missing.append(f"{relative}:{node.lineno} class {node.name}")
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    continue  # constructors are covered by the class docstring
                if _is_public(member.name) and ast.get_docstring(member) is None:
                    missing.append(
                        f"{relative}:{member.lineno} {node.name}.{member.name}"
                    )
    return missing


def main() -> int:
    failures: list[str] = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            failures.append(f"{relative}:1 missing module docstring")
        if relative.startswith(DOCUMENTED_SURFACE[0]) or relative in DOCUMENTED_SURFACE[1:]:
            failures.extend(_missing_entry_points(tree, relative))
    if failures:
        print("doc gate: missing docstrings:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"doc gate: ok ({len(list(PACKAGE_ROOT.rglob('*.py')))} modules checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
