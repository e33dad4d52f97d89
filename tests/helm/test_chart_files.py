"""Differential suite: chart files through the subset parser == PyYAML.

``load_values`` (and so ``ChartSource.parse``, ``Chart.from_directory`` and
watch mode's rescan) reads ``values.yaml`` and ``Chart.yaml`` with the
block-YAML subset parser and falls back to PyYAML for anything outside the
subset.  The oracle is ``yaml_load`` alone: for every document,
``load_values`` returns what ``yaml_load`` returns (``{}`` for an empty
document), compared with types, key order and float bits (so NaN equals
NaN, and PyYAML's one negative NaN object is matched), with equal
fingerprints, or both refuse it.

The documents are ``dump_values`` trees with every YAML 1.1 plain-scalar
spelling written raw into them (bools, nulls, ints in every base,
floats, sexagesimals, timestamps, ``<<`` and ``=``), then decorated the
way people edit chart files: full-line and trailing comments, blank lines,
spaces before a key's colon and a leading byte-order mark.  At least
:data:`SUBSET_SHARE` of the examples (half; the derandomized run serves
133 of 200) must be served by the subset parser, so the suite cannot pass
on fallbacks alone.  Every chart file of the catalogue, written as the
watch tests and perfbench write it, parses on the subset path.
"""

from __future__ import annotations

import datetime
import re
import struct

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from repro.datasets import build_catalog
from repro.helm import ValuesError, dump_values, fingerprint_values, load_values
from repro.helm.structured import _UnsupportedYaml, parse_simple_yaml
from repro.k8s.yamlio import yaml_load

#: Plain spellings of every YAML 1.1 implicit type the subset resolves, and
#: strings close to one.
SUBSET_SCALARS = (
    "yes", "Yes", "YES", "no", "No", "NO", "true", "True", "TRUE", "false", "False",
    "FALSE", "on", "On", "ON", "off", "Off", "OFF", "y", "n",
    "~", "null", "Null", "NULL",
    "0", "-0", "+12", "1_000", "0b1010", "-0b1_0", "0x1F", "0xff_ff", "010", "0_7",
    "08", "09_1",
    "1.5", "-0.5", "+1.", "0.", ".5", "._1", "._", "1_000.5", "1.0e+5", "1.0E-3", "1e5",
    ".inf", "-.Inf", "+.INF", ".nan", ".NaN", "-.5",
    "a#b", "v1.2.3", "8.15.3", "0o17", "1__2", "..", "x%", "x  y", "-a",
)
#: The implicit types the subset leaves to PyYAML: sexagesimals,
#: timestamps, the merge key and the value special.
PYYAML_SCALARS = (
    "1:30", "-1:30:15", "1:30.5",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2002-12-14 21:59:43.10 -5",
    "<<", "=",
)
#: A string ``dump_values`` writes plain and that no other text contains.
RAW_MARK = "zqraw{}q"
#: Share of the generated documents the subset parser must serve.
SUBSET_SHARE = 0.5

names = st.sampled_from((
    "image", "repository", "tag", "replicaCount", "service", "port", "targetPort",
    "ports", "enabled", "labels", "annotations", "resources", "limits", "cpu",
    "memory", "env", "name", "value", "ingress", "hosts", "paths", "networkPolicy",
    "podLabels", "selector", "matchLabels", "apiVersion", "version", "appVersion",
    "description", "global", "x1", "a-b", "a.b", "a_b", "fooBar9",
))
plain_text = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-./_ ", max_size=12)
any_text = st.text(
    alphabet=st.sampled_from(
        list("abcxyz019 :#-'\"!&*?|>%@`{}[],.=~<\\/") + ["\n", "\t", "\x01", "\x85",
                                                         "\u2028", "\ufeff", "\u00e9"]
    ),
    max_size=10,
)
subset_raw = st.sampled_from(SUBSET_SCALARS).map(lambda token: ("raw", token))
pyyaml_raw = st.sampled_from(PYYAML_SCALARS).map(lambda token: ("raw", token))
subset_leaves = st.one_of(
    subset_raw,
    st.none() | st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    names,
)
any_leaves = st.one_of(
    subset_leaves,
    pyyaml_raw,
    st.dates(min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2030, 12, 31)),
    plain_text,
    any_text,
)


def trees(leaves, keys):
    """Nested mappings and sequences over ``leaves``, keyed by ``keys``."""
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
        max_leaves=16,
    )


#: Chart-shaped documents the subset should serve, and documents of anything.
subset_keys = names | subset_raw
any_keys = st.one_of(subset_keys, pyyaml_raw, plain_text, any_text)
documents = st.one_of(
    st.dictionaries(subset_keys, trees(subset_leaves, subset_keys), max_size=6),
    st.dictionaries(any_keys, trees(any_leaves, any_keys), max_size=6),
)


def document_text(tree: dict) -> str:
    """``dump_values(tree)`` with each raw leaf or key spelled as its token."""
    tokens: list[str] = []

    def mark(value):
        if isinstance(value, tuple) and value and value[0] == "raw":
            tokens.append(value[1])
            return RAW_MARK.format(len(tokens) - 1)
        if isinstance(value, dict):
            return {mark(key): mark(item) for key, item in value.items()}
        if isinstance(value, list):
            return [mark(item) for item in value]
        return value

    text = dump_values(mark(tree))
    return re.sub(r"zqraw(\d+)q", lambda match: tokens[int(match.group(1))], text)


#: Line edits, drawn per line.
DECORATIONS = ("keep", "keep", "keep", "full-line", "trailing", "blank", "spaced-key")


def decorate(text: str, draw) -> str:
    """``text`` with comments, blank lines and spaced keys drawn per line."""
    out = []
    for line in text.split("\n"):
        edit = draw(st.sampled_from(DECORATIONS))
        if edit == "full-line":
            out.append(" " * draw(st.integers(0, 6)) + "#" + draw(plain_text))
        elif edit == "blank":
            out.append(" " * draw(st.integers(0, 3)))
        elif edit == "trailing" and line.strip():
            line += " " * draw(st.integers(1, 3)) + "#" + draw(plain_text)
        elif edit == "spaced-key":
            line = re.sub(r"^(\s*(?:- )*[^\s:'\"#][^:'\"#]*?)(:(?: |$))", r"\1 \2", line, count=1)
        out.append(line)
    return ("\ufeff" if draw(st.booleans()) else "") + "\n".join(out)


def canonical(value):
    """``value`` with types, key order and float bits made comparable."""
    if isinstance(value, dict):
        return ("map", [(canonical(key), canonical(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("seq", [canonical(item) for item in value])
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    return (type(value).__name__, value)


def oracle(text: str):
    """What PyYAML reads: (canonical mapping, fingerprint), or ``"refused"``."""
    try:
        data = yaml_load(text)
    except (yaml.YAMLError, ValueError):
        return "refused"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        return "refused"
    return canonical(data), fingerprint_values(data)


def loaded(text: str):
    """What ``load_values`` reads: (canonical mapping, fingerprint), or ``"refused"``."""
    try:
        data = load_values(text)
    except ValuesError:
        return "refused"
    return canonical(data), fingerprint_values(data)


def by_subset(text: str) -> bool:
    try:
        parse_simple_yaml(text)
    except _UnsupportedYaml:
        return False
    return True


def test_load_values_equals_pyyaml_over_decorated_documents():
    served: list[bool] = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tree=documents, data=st.data())
    def check(tree, data):
        text = decorate(document_text(tree), data.draw)
        assert loaded(text) == oracle(text), text
        served.append(by_subset(text))

    check()
    assert sum(served) >= SUBSET_SHARE * len(served), (sum(served), len(served))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\ufeff# values\n\nimage: web  # pinned\nport : 80\n", {"image": "web", "port": 80}),
        ("a:\n# column 0\n  - x # one\n  - # none\n", {"a": ["x", None]}),
        ("7 : v\nyes: off\n~: .5\n", {7: "v", True: False, None: 0.5}),
        ("# only a comment\n", {}),
        ("a: ._1\nb: 1_0.5\nc: 0x1F\n", {"a": "._1", "b": 10.5, "c": 31}),
    ],
)
def test_hand_written_files_parse_on_the_subset_path(text, expected):
    assert by_subset(text)
    assert load_values(text) == expected == (yaml_load(text) or {})


@pytest.mark.parametrize(
    "text",
    [
        'color: "#fff"\n',
        "a: 'b' # c\n",
        "when: 2024-01-01\n",
        "merge: <<\n",
        "a: 0b_\n",
        "key: |\n  # kept\n  text\n",
    ],
)
def test_what_the_subset_refuses_reads_like_pyyaml(text):
    assert not by_subset(text)
    assert loaded(text) == oracle(text)


def test_every_catalogue_chart_file_parses_on_the_subset_path():
    texts = []
    for app in build_catalog():
        texts.append(dump_values(dict(app.chart.metadata.to_dict())))
        texts.append(dump_values(app.chart.values))
    assert len(texts) == 580
    for text in texts:
        assert by_subset(text), text
        assert loaded(text) == oracle(text), text
