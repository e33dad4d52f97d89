"""The YAML oracle is PyYAML's libyaml build.

The structured render path and the block-YAML subset parser are proven
equal to ``yaml_load``, and match libyaml's ``CSafeLoader``.  The
pure-Python ``SafeLoader`` reads byte-order marks differently:
``"a: 1\\n---\\n\\ufeffb: 2\\n"`` gives the key ``b`` under libyaml and
``'\\ufeffb'`` in pure Python, and ``"a: 1\\n\\ufeffb: 2\\n"`` is a parse
error under libyaml but loads in pure Python.  So the differential suites
hold only where :mod:`repro.k8s.yamlio` resolved libyaml's classes.
"""

from __future__ import annotations

import pytest

from repro.k8s import yamlio


def test_yaml_oracle_is_libyaml():
    yaml = yamlio.pyyaml()
    libyaml = (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None))
    if yamlio._classes() != libyaml:
        pytest.fail(
            "PyYAML lacks libyaml: the differential suites are proven against CSafeLoader only",
            pytrace=False,
        )
