"""Property tests for ``Chart.fingerprint()`` -- the render cache's key.

The rendered-chart cache keys on the fingerprint, so its correctness
contract is exactly two-sided:

* **stability** -- charts whose values files are YAML-equivalent (different
  key order, flow vs block style, whitespace, comments) must fingerprint
  identically, otherwise equal charts miss each other's cache entries;
* **sensitivity** -- any change to a template (name or source), a canonical
  value, metadata or a packaged subchart must change the fingerprint,
  otherwise the cache would serve renders of a different chart.

A values tree holding a leaf ``marshal`` cannot write (a YAML date) is
hashed through the ``repr`` fallback, which must keep both sides too.
"""

from __future__ import annotations

import marshal
from datetime import date, timedelta

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from repro.helm import Chart

TEMPLATE = """\
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-svc
spec:
  ports:
    - port: {{ .Values.port | default 80 }}
"""

scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
    st.text(alphabet="abcdefXYZ -_09", max_size=12),
)

keys = st.text(alphabet="abcdefghij", min_size=1, max_size=8)

values_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)

values_dicts = st.dictionaries(keys, values_trees, max_size=5)


def chart_with(values_yaml: str, template: str = TEMPLATE, name: str = "prop") -> Chart:
    return Chart.from_files(
        name, values_yaml=values_yaml, templates={"svc.yaml": template}
    )


def reordered(tree):
    """The same tree with every mapping's key order reversed."""
    if isinstance(tree, dict):
        return {key: reordered(tree[key]) for key in reversed(list(tree))}
    if isinstance(tree, list):
        return [reordered(item) for item in tree]
    return tree


@settings(max_examples=60, deadline=None)
@given(tree=values_dicts)
def test_fingerprint_stable_across_equivalent_values_files(tree):
    """Key order, flow style and surrounding comments must not matter."""
    block = yaml.safe_dump(tree, sort_keys=True, default_flow_style=False)
    flow = yaml.safe_dump(reordered(tree), sort_keys=False, default_flow_style=True)
    commented = "# a leading comment\n" + block + "\n# a trailing comment\n"
    fingerprints = {
        chart_with(block).fingerprint(),
        chart_with(flow).fingerprint(),
        chart_with(commented).fingerprint(),
    }
    assert len(fingerprints) == 1


@settings(max_examples=60, deadline=None)
@given(tree=values_dicts, marker=st.integers(min_value=0, max_value=10**6))
def test_fingerprint_changes_with_any_canonical_value_change(tree, marker):
    base_yaml = yaml.safe_dump(tree, sort_keys=True)
    base = chart_with(base_yaml).fingerprint()
    mutated = dict(tree)
    mutated["__fingerprint_probe__"] = marker
    changed = chart_with(yaml.safe_dump(mutated, sort_keys=True)).fingerprint()
    assert base != changed


@settings(max_examples=40, deadline=None)
@given(tree=values_dicts, suffix=st.text(alphabet="abc# ", min_size=1, max_size=10))
def test_fingerprint_changes_with_template_source_or_name(tree, suffix):
    values_yaml = yaml.safe_dump(tree, sort_keys=True)
    base = chart_with(values_yaml).fingerprint()
    # Any template source change -- even inside a comment -- is a new chart.
    touched_source = chart_with(values_yaml, template=TEMPLATE + "# " + suffix + "\n")
    assert touched_source.fingerprint() != base
    renamed = Chart.from_files(
        "prop", values_yaml=values_yaml, templates={"renamed.yaml": TEMPLATE}
    )
    assert renamed.fingerprint() != base


def test_fingerprint_covers_metadata_and_subcharts():
    base = chart_with("port: 80\n")
    assert base.fingerprint() == chart_with("port: 80\n").fingerprint()
    versioned = chart_with("port: 80\n")
    versioned.metadata.version = "9.9.9"
    assert versioned.fingerprint() != base.fingerprint()

    with_sub = chart_with("port: 80\n")
    subchart = Chart.from_files("sub", values_yaml="x: 1\n", templates={})
    with_sub.add_subchart(subchart)
    assert with_sub.fingerprint() != base.fingerprint()

    # Mutating the packaged subchart's values propagates to the parent.
    fingerprint_before = with_sub.fingerprint()
    subchart.values["x"] = 2
    assert with_sub.fingerprint() != fingerprint_before


@settings(max_examples=40, deadline=None)
@given(tree=values_dicts, day=st.dates(min_value=date(1970, 1, 1), max_value=date(2999, 1, 1)))
def test_dated_values_take_the_repr_fallback_and_keep_both_sides(tree, day):
    dated = dict(tree, released=day)
    block = yaml.safe_dump(dated, sort_keys=True, default_flow_style=False)
    flow = yaml.safe_dump(reordered(dated), sort_keys=False, default_flow_style=True)
    first, second = chart_with(block), chart_with(flow)
    assert first.values["released"] == day  # YAML parsed a date, not a string
    with pytest.raises(ValueError):
        marshal.dumps(first.values, 2)
    # The fallback hashes the repr of the tree, which key-sorting makes the
    # same for both spellings.
    assert repr(first.values) == repr(second.values)
    assert first.fingerprint() == second.fingerprint()
    later = yaml.safe_dump(dict(dated, released=day + timedelta(days=1)), sort_keys=True)
    assert chart_with(later).fingerprint() != first.fingerprint()


def test_mixed_type_keys_sort_by_type_name_then_string():
    first = chart_with("b: c\n2: d\n1: a\n")
    second = chart_with("1: a\nb: c\n2: d\n")
    assert list(first.values) == list(second.values) == [1, 2, "b"]
    assert first.fingerprint() == second.fingerprint()
