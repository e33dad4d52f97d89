"""Every function, method and class under ``src/repro`` is named somewhere else.

A definition whose name occurs exactly once in the repository's Python
code -- at the definition itself -- has no caller, no test, no override
and no reference of any kind, so it is code nobody reaches.  The check is
textual on purpose: identifiers are counted across every ``.py`` file
under ``src``, ``tests``, ``benchmarks``, ``perfbench``, ``examples`` and
``tools``, so a name that any of them spells, even in a string a wrapper
looks up by name, counts as used.  Dunder methods are exempt: Python
calls them.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifier_counts() -> Counter:
    counts: Counter = Counter()
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            counts.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def uncalled_definitions() -> list[str]:
    counts = identifier_counts()
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        definitions = sorted(
            (node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS)
        )
        for line, name in definitions:
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and counts[name] == 1:
                found.append(f"{path.relative_to(REPO_ROOT)}:{line} {name}")
    return found


def test_every_definition_is_named_elsewhere():
    uncalled = uncalled_definitions()
    assert not uncalled, "defined but never named anywhere else:\n" + "\n".join(uncalled)
