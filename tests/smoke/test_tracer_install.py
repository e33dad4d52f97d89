"""perfbench's tracer still installs over the current source tree.

``perfbench/tracing.py`` wraps each layer's entry point by name, as a
module global or class attribute.  A refactor that renames or moves one
of them breaks only traced benchmark runs, so this test installs the
tracer, checks every wrapper is in place, and checks that ``restore``
puts every original back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_entry_point():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches, "install wrapped nothing"
        for owner, attribute, original in patches:
            assert owner.__dict__[attribute] is not original, f"{owner}.{attribute}"
    finally:
        tracer.restore()
    for owner, attribute, original in patches:
        assert owner.__dict__[attribute] is original, f"{owner}.{attribute} not restored"
