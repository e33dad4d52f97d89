"""Every function, method and class under ``src/repro`` is used in code somewhere.

A definition whose name no Python code in the repository uses has no
caller, no test, no override and no reference of any kind, so it is code
nobody reaches.  Uses are counted from the syntax tree of every ``.py``
file under ``src``, ``tests``, ``benchmarks``, ``perfbench``, ``examples``
and ``tools``: names, attribute names, keyword arguments, the names a
``from ... import`` takes outside an ``__init__.py``, and string
constants that spell an identifier (a wrapper that looks a function up by
name).  Prose does not count: docstrings and comments are skipped, and so
are a package's re-exports (``__init__.py`` imports and ``__all__``), which
name a definition without using it.  Tests count as users.  Dunder
methods are exempt: Python calls them.  The unit cases at the end pin
each counting rule, one use or non-use per case.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOCUMENTED = (ast.Module, *DEFINITIONS)


def _skipped_constants(tree: ast.Module) -> set[int]:
    """The ids of the string constants that are docstrings or ``__all__`` entries."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(child) for child in ast.walk(node.value))
    return skipped


def uses_in(path: Path) -> list[str]:
    """Every identifier the code of ``path`` uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = path.name == "__init__.py"
    skipped = _skipped_constants(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append(node.id)
        elif isinstance(node, ast.Attribute):
            uses.append(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            uses.append(node.arg)
        elif isinstance(node, ast.ImportFrom) and not package:
            uses.extend(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and IDENTIFIER.fullmatch(node.value)
        ):
            uses.append(node.value)
    return uses


def identifier_counts() -> Counter:
    counts: Counter = Counter()
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            counts.update(uses_in(path))
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
            if not dunder and not counts[name]:
                found.append(f"{path.relative_to(REPO_ROOT)}:{line} {name}")
    return found


def test_every_definition_is_named_elsewhere():
    uncalled = uncalled_definitions()
    assert not uncalled, "defined but never used in code:\n" + "\n".join(uncalled)


#: ``(file name, source)`` pairs whose code uses the name ``helper``.
USES = {
    "call": ("module.py", "helper()\n"),
    "attribute": ("module.py", "things.helper\n"),
    "keyword": ("module.py", "run(helper=1)\n"),
    "from-import": ("module.py", "from repro.things import helper\n"),
    "name-lookup": ("module.py", "getattr(things, 'helper')\n"),
    "package-call": ("__init__.py", "helper()\n"),
}

#: ``(file name, source)`` pairs that name ``helper`` without using it.
NOT_USES = {
    "definition": ("module.py", "def helper():\n    pass\n"),
    "module-docstring": ("module.py", '"""helper"""\n'),
    "function-docstring": ("module.py", 'def other():\n    """helper"""\n'),
    "class-docstring": ("module.py", 'class Other:\n    """helper"""\n'),
    "comment": ("module.py", "# helper\n"),
    "not-an-identifier": ("module.py", "print('helper()')\n"),
    "dunder-all": ("module.py", "__all__ = ['helper']\n"),
    "package-re-export": ("__init__.py", "from .things import helper\n"),
}


@pytest.mark.parametrize("case", sorted(USES))
def test_code_that_uses_a_name_counts(tmp_path, case):
    name, source = USES[case]
    (tmp_path / name).write_text(source, encoding="utf-8")
    assert "helper" in uses_in(tmp_path / name)


@pytest.mark.parametrize("case", sorted(NOT_USES))
def test_prose_and_re_exports_do_not_count(tmp_path, case):
    name, source = NOT_USES[case]
    (tmp_path / name).write_text(source, encoding="utf-8")
    assert "helper" not in uses_in(tmp_path / name)
