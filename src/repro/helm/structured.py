"""Structured document assembly: fragments in, native dicts out.

The classic render path joins every fragment into one text blob and pays a
full YAML parse to get its documents back; this module is the dict-native
alternative.  It consumes the fragment stream a compiled template emits
(:mod:`repro.helm.template`) and assembles documents with as little YAML
text as possible:

* :class:`~repro.helm.template.DocumentSplit` markers (``---`` lines found
  at compile time) split the stream into per-document groups -- no document
  scanning over rendered text;
* :class:`~repro.helm.template.StructuredFragment` values (``toYaml``
  emissions) never touch YAML text: each one becomes a single placeholder
  line in its group's *skeleton*, and after the skeleton is parsed the
  native value is spliced into place (mappings splice entry-by-entry with
  last-wins duplicate semantics, everything else substitutes the scalar
  placeholder);
* :class:`~repro.helm.template.ScalarFragment` values (interpolated
  expressions, including those a statement-level ``include`` emits) open a
  *value run* at a whole value position (after ``": "`` or ``"- "``): the
  run absorbs glued text and scalars up to the line break, and a run the
  strict resolver can type becomes one scalar placeholder.  Chart values
  thus stay out of the skeleton text, and the skeleton parse memo keys on
  the template's shape;
* the skeleton itself -- the genuinely free-form text segments -- goes
  through :func:`parse_simple_yaml`, a fast parser for the block-YAML
  subset rendered manifests actually use, with PyYAML as the fallback for
  anything outside that subset.

Every step is guarded: an unplaceable fragment, a placeholder collision, a
parse error, or an unsupported YAML construct drops the affected group back
to the reference behaviour -- stringify the fragments, parse the real text
-- so the structured path can only ever *accelerate* the text path, never
diverge from it.  The one placeholder allowed to go missing from the parse
is a scalar one in a skeleton the subset parser built: that grammar drops a
value only under a later duplicate key (last wins), where the text path
drops the same value.  The differential suite in
``tests/helm/test_structured_render.py`` proves dict-identical output over
the full catalogue, Hypothesis-generated charts and adversarial templates.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from typing import Any, Iterable

from .. import faults
from ..k8s.yamlio import pyyaml, yaml_load_all
from ..memo import remember
from .errors import RenderError
from .template import DocumentSplit, Fragment, ScalarFragment, StructuredFragment

#: Placeholder scalars stamped into the skeleton text, one per structured
#: fragment, numbered per group.  If rendered *text* happens to contain the
#: prefix (an adversarial value), the whole group falls back to the text
#: path -- a simple count check catches the collision.
PLACEHOLDER_PREFIX = "__repro_frag_"

#: Parse-result memo keyed on skeleton text.  Values the assembler can place
#: reach the skeleton only as placeholder tokens, so it comes out
#: byte-identical per template shape: a cold catalogue render parses one
#: skeleton per shape, and override-variant sweeps (the Figure 4b
#: experiment) re-render the same chart with no fresh parse at all -- only
#: the splice differs.  Memoized results are never mutated: the splice
#: rebuilds every container it touches and the no-splice path hands out
#: deep-ish copies (:func:`_copy_document`).  Entries are
#: ``(documents, by_subset)`` (see :func:`_parse_group_text`).
_SKELETON_MEMO: dict[str, tuple[list, bool]] = {}
_SKELETON_MEMO_MAXSIZE = 4096
_SKELETON_PARSE_COUNT = 0


def skeleton_parse_count() -> int:
    """How many skeleton texts have actually been parsed (memo misses).

    The guard-hook twin of :func:`repro.helm.template.template_parse_count`:
    re-rendering a chart with override variants that only change
    placeable values must not re-parse its skeletons.
    """
    return _SKELETON_PARSE_COUNT


def clear_skeleton_parse_memo() -> None:
    """Drop the skeleton parse and value-run memos (tests and benchmark
    cold starts)."""
    _SKELETON_MEMO.clear()
    _RUN_MEMO.clear()


class _SpliceError(Exception):
    """The skeleton cannot host the structured values; use the text path."""


class _UnsupportedYaml(Exception):
    """The skeleton leaves the fast parser's subset; use PyYAML."""


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_documents(
    fragments: Iterable[Fragment], source_name: str = "", shared: bool = False
) -> tuple[list[dict], str]:
    """Assemble a fragment stream into ``(documents, skeleton_text)``.

    ``documents`` matches the text path's parse byte-for-byte (empty and
    ``None`` documents dropped); ``skeleton_text`` is the text that was
    actually assembled -- structured fragments appear as their placeholder
    lines -- and is recorded as the template's source for debugging.

    ``shared=True`` (the interned render path) may return documents whose
    placeholder-free subtrees alias the skeleton parse memo: the caller
    promises the documents are read-only (the render-cache contract).  The
    default rebuilds every container, so mutable consumers stay safe.
    """
    faults.fault_point(faults.STRUCTURED_ASSEMBLE)
    documents: list[dict] = []
    skeleton_parts: list[str] = []
    group: list = []
    tail = ""  # last character of the group's rendered text so far

    def flush() -> None:
        nonlocal tail
        if group:
            skeleton_parts.append(_flush_group(group, documents, source_name, shared))
            group.clear()
        tail = ""

    for fragment in fragments:
        kind = type(fragment)
        if kind is str:
            if fragment:
                group.append(fragment)
                tail = fragment[-1]
        elif kind is ScalarFragment:
            # Interpolated expression output: rendered text for the tail
            # bookkeeping (document splits follow *real* line positions),
            # placeholder candidate for the group flush.
            group.append(fragment)
            tail = fragment.rendered[-1]
        elif kind is DocumentSplit:
            # A separator only separates at the start of an output line;
            # mid-line it is literal text (and the scoped parse, or the
            # fallback, deals with whatever that means).
            if not tail or tail == "\n":
                flush()
                skeleton_parts.append(fragment.literal)
            else:
                group.append(fragment.literal)
                tail = "\n"
        else:  # StructuredFragment
            group.append(fragment)
            tail = "_"  # placeholder lines never end with a newline
    flush()
    return documents, "".join(skeleton_parts)


def _flush_group(
    group: list,
    documents: list[dict],
    source_name: str,
    shared: bool = False,
) -> str:
    """Parse one document group, splicing its structured fragments in.

    Returns the skeleton text (placeholders included) for the sources map.
    """
    parts, table, glued_after_placeholder = _group_parts(group)
    skeleton = "".join(parts)
    if not skeleton.strip():
        # Whitespace-only group: the text path's early-out for blank output
        # (placeholder lines are never blank, so no structure is lost here).
        return skeleton
    if not table:
        parsed, _ = _parse_group_text_memo(skeleton, source_name)
        if shared:
            # Read-only consumer: hand out the memoized parse directly.
            documents.extend(document for document in parsed if document)
        else:
            documents.extend(
                _copy_document(document) for document in parsed if document
            )
        return skeleton
    if glued_after_placeholder or skeleton.count(PLACEHOLDER_PREFIX) != len(table):
        # Glue on a placeholder line, or a rendered value containing the
        # placeholder prefix: ambiguous layouts go to the reference path.
        documents.extend(_parse_text_fallback(group, source_name))
        return skeleton
    try:
        parsed, by_subset = _parse_group_text_memo(skeleton, source_name)
        consumed: set[str] = set()
        spliced = [
            _substitute(document, table, consumed, shared) for document in parsed
        ]
        if len(consumed) != len(table) and (
            not by_subset or any(table[token][0] for token in table.keys() - consumed)
        ):
            # The subset parser drops a value only under a later duplicate
            # key (last wins), where the text path drops the same scalar.  A
            # dropped mapping splice would have contributed keys, and PyYAML
            # can hide a token where the real text means something else (a
            # quoted scalar the run's glue closed, a tag, a comment).
            raise _SpliceError("unconsumed placeholder")
    except (_SpliceError, RenderError):
        documents.extend(_parse_text_fallback(group, source_name))
        return skeleton
    documents.extend(document for document in spliced if document)
    return skeleton


def _group_parts(group: list) -> tuple[list[str], dict[str, tuple[bool, Any]], bool]:
    """Build one group's skeleton parts and placeholder table.

    Returns ``(parts, table, glued_after_placeholder)`` where ``table``
    maps every placeholder token to ``(splice_as_mapping, value)`` --
    structured fragments splice their native value, value runs their
    pre-resolved scalar.  A scalar fragment directly after ``": "`` or
    ``"- "`` opens a value run (:func:`_value_run`); a clean run whose
    joined text the strict resolver understands becomes one placeholder.
    Everything else contributes rendered text exactly as the text path
    does.
    """
    parts: list[str] = []
    table: dict[str, tuple[bool, Any]] = {}
    prev2 = ""  # last two characters of the skeleton so far
    after_placeholder = False  # the skeleton ends with a placeholder token
    glued_after_placeholder = False
    index, total = 0, len(group)
    while index < total:
        item = group[index]
        index += 1
        kind = type(item)
        rest = ""
        if kind is str:
            if after_placeholder and not item.startswith("\n"):
                # Text glued onto a placeholder line: the glue would land in
                # (or next to) the spliced value, which only the text path
                # can interpret.  Keep building the skeleton for `sources`,
                # but parse this group via the fallback.
                glued_after_placeholder = True
            text = item
        elif kind is ScalarFragment:
            text = item.rendered
            if after_placeholder:
                glued_after_placeholder = True
            elif prev2 in (": ", "- ") and "\n" not in text:
                text, rest, index, clean = _value_run(group, index, text)
                entry = _RUN_MEMO.get(text) if clean else ()
                if entry is None:
                    entry = _resolve_run(text)
                if entry:
                    token = f"{PLACEHOLDER_PREFIX}{len(table)}__"
                    parts.append(token)
                    table[token] = (False, entry[0])
                    prev2, after_placeholder, text = "__", True, ""
                # Otherwise the run stays inline text, as the text path has
                # it (the skeleton then varies with the value).
        elif item.leading_newline or not prev2 or prev2[-1] == "\n":
            # A StructuredFragment that owns whole lines: a placeholder.
            token = f"{PLACEHOLDER_PREFIX}{len(table)}__"
            prefix = ("\n" if item.leading_newline else "") + " " * item.indent
            if type(item.value) is dict or isinstance(item.value, Mapping):
                parts.append(f"{prefix}{token}: null")
                table[token] = (True, item.value)
            else:
                parts.append(prefix + token)
                table[token] = (False, item.value)
            prev2, after_placeholder = "__", True
            continue
        else:
            # Mid-line structure (``foo: {{ toYaml .x }}``): no whole line
            # to own, so this fragment contributes text like the text path.
            if after_placeholder:
                glued_after_placeholder = True
            text = item.text()
        if text:
            parts.append(text)
            prev2 = (prev2 + text)[-2:]
            after_placeholder = False
        if rest:
            parts.append(rest)
            prev2 = (prev2 + rest)[-2:]
            after_placeholder = False
    return parts, table, glued_after_placeholder


def _value_run(group: list, index: int, first: str) -> tuple[str, str, int, bool]:
    """Collect the value run that scalar text ``first`` opens.

    The run absorbs text and scalars from ``group[index:]`` up to the next
    line break.  Returns ``(run text, rest, next index, clean)``: ``rest``
    is what follows the line break inside the text fragment that held it,
    and ``clean`` says the run owns its whole value position -- it ended at
    a line break, at a line-leading structured fragment, or at the end of
    the group.  A scalar containing a line break, or structure emitted
    mid-line, cuts the run without consuming the cutting fragment.
    """
    text = first
    total = len(group)
    while index < total:
        item = group[index]
        kind = type(item)
        if kind is str:
            cut = item.find("\n")
            if cut >= 0:
                return text + item[:cut], item[cut:], index + 1, True
            text += item
        elif kind is ScalarFragment:
            if "\n" in item.rendered:
                return text, "", index, False
            text += item.rendered
        else:  # StructuredFragment
            return text, "", index, item.leading_newline
        index += 1
    return text, "", index, True


#: Value-run resolution memo: run texts repeat across a catalogue
#: (protocols, kinds, ports, chart names), so the strict resolver runs once
#: per distinct text.  An entry is ``(resolved,)`` for a placeable run and
#: ``()`` for one that stays inline; both are immutable, safe to share.
_RUN_MEMO: dict[str, tuple] = {}
_RUN_MEMO_MAXSIZE = 16384


def _resolve_run(text: str) -> tuple:
    """Resolve one clean run's text into its :data:`_RUN_MEMO` entry."""
    try:
        entry: tuple = (_resolve_scalar_text(text),)
    except _UnsupportedYaml:
        entry = ()
    return remember(_RUN_MEMO, text, entry, _RUN_MEMO_MAXSIZE)


def _resolve_scalar_text(text: str) -> Any:
    """What the text path parses for ``text`` in a whole value position.

    Mirrors the ``key: <text>`` / ``- <text>`` contexts exactly:
    value-position spaces strip, an empty value is ``null``, everything
    else goes through the strict inline resolver (quoted strings, empty
    flow collections, unambiguous plain scalars).  Raises
    :class:`_UnsupportedYaml` whenever the real text could mean anything
    more -- newlines restructure the document, ``#`` can start a comment,
    a character PyYAML's reader refuses fails the whole parse, a bare ``-``
    or document marker is indentation-sensitive, and a flow indicator
    (``,[]{}``) in a plain scalar splits or closes a flow collection the
    value may sit in -- sending the run down the inline-text path instead.
    """
    if "\n" in text or _UNSUPPORTED_CHARS_RE.search(text):
        raise _UnsupportedYaml("structural characters in scalar text")
    stripped = text.strip(" ")
    if not stripped:
        return None
    if stripped == "-" or stripped.startswith(("---", "...")):
        raise _UnsupportedYaml("indicator-only scalar")
    if (
        stripped[0] not in "\"'"
        and stripped not in ("{}", "[]")
        and _FLOW_INDICATOR_RE.search(stripped)
    ):
        raise _UnsupportedYaml("flow indicator in plain scalar")
    return _resolve_flow(stripped)


def _parse_group_text_memo(text: str, source_name: str) -> tuple[list[Any], bool]:
    """:func:`_parse_group_text`, memoized on the skeleton text.

    The memoized result is shared: callers must either rebuild every
    container they emit (the splice does) or copy (:func:`_copy_document`).
    Parse *errors* are not memoized -- the error path re-raises fresh with
    the offending source name.
    """
    cached = _SKELETON_MEMO.get(text)
    if cached is None:
        cached = _parse_group_text(text, source_name)
        remember(_SKELETON_MEMO, text, cached, _SKELETON_MEMO_MAXSIZE)
    return cached


def _parse_group_text(text: str, source_name: str) -> tuple[list[Any], bool]:
    """Parse one group's text: fast subset parser first, PyYAML second.

    Returns ``(documents, by_subset)``: ``by_subset`` says the subset
    parser built them.  Skeleton text holding a ``#`` goes straight to
    PyYAML (the subset parser's comment grammar is for chart files): a
    comment can hide a placeholder token, and a token missing from a
    subset parse may only be a duplicate key's.
    """
    global _SKELETON_PARSE_COUNT
    _SKELETON_PARSE_COUNT += 1
    if "#" not in text:
        try:
            return parse_simple_yaml(text), True
        except _UnsupportedYaml:
            pass
    try:
        return list(yaml_load_all(text)), False
    except pyyaml().YAMLError as exc:
        raise RenderError(
            f"template {source_name} produced invalid YAML: {exc}\n--- output ---\n{text}"
        ) from exc


def _copy_document(document: Any) -> Any:
    """A mutation-safe copy of a memoized parse result.

    Containers are rebuilt recursively; scalars (strings, numbers, booleans,
    ``None``, and whatever else PyYAML resolved -- dates included) are
    immutable and pass through shared.
    """
    if isinstance(document, dict):
        return {key: _copy_document(value) for key, value in document.items()}
    if isinstance(document, list):
        return [_copy_document(item) for item in document]
    return document


def _parse_text_fallback(group: list, source_name: str) -> list[dict]:
    """The reference behaviour: stringify the fragments, parse the text."""
    text = "".join(item if type(item) is str else item.text() for item in group)
    if not text.strip():
        return []
    try:
        parsed = list(yaml_load_all(text))
    except pyyaml().YAMLError as exc:
        raise RenderError(
            f"template {source_name} produced invalid YAML: {exc}\n--- output ---\n{text}"
        ) from exc
    return [document for document in parsed if document]


# ---------------------------------------------------------------------------
# Placeholder substitution
# ---------------------------------------------------------------------------


def _substitute(
    node: Any, table: dict[str, tuple[bool, Any]], consumed: set[str], shared: bool = False
) -> Any:
    """Rebuild ``node`` with placeholders replaced by native values.

    Rebuilding (rather than mutating) doubles as the copy that keeps parse
    caches and chart values isolated from whatever the caller mutates later.
    Mapping placeholders splice their entries in place with sequential
    insertion -- the same last-wins-first-position semantics PyYAML applies
    to duplicate keys in real text.

    ``shared=True`` (read-only consumers) stops rebuilding once every
    placeholder has been consumed: the group-level count guard guarantees
    the skeleton contains exactly ``len(table)`` placeholder occurrences, so
    the remaining subtrees are placeholder-free and safe to alias.  Every
    string that mentions the placeholder prefix, key or value, must be a
    whole token of the right kind.
    """
    if shared and len(consumed) == len(table):
        return node
    # Parsed nodes come from the subset parser (dicts, lists, plain scalars)
    # or PyYAML's SafeLoader, so identity checks are safe.  SafeLoader's
    # other containers -- the tuples of ``!!omap``/``!!pairs``, the sets of
    # ``!!set`` -- pass through unwalked: a token inside one stays
    # unconsumed, which :func:`_flush_group` never forgives in a skeleton
    # PyYAML built.
    kind = type(node)
    if kind is dict:
        out: dict = {}
        for key, value in node.items():
            if type(key) is str and PLACEHOLDER_PREFIX in key:
                # Only a mapping placeholder may sit in key position; a
                # scalar's token, or any token fused into a larger key, is a
                # layout we do not understand.
                entry = table.get(key)
                if entry is None or not entry[0] or key in consumed:
                    raise _SpliceError(key)
                consumed.add(key)
                for spliced_key, spliced_value in entry[1].items():
                    out[_native_key(spliced_key)] = _native_value(spliced_value)
            else:
                out[key] = _substitute(value, table, consumed, shared)
        return out
    if kind is list:
        return [_substitute(item, table, consumed, shared) for item in node]
    if kind is str:
        if PLACEHOLDER_PREFIX not in node:
            return node
        # A mapping's token in value position, a token met twice, or a
        # token fused into a larger scalar: let the text path handle it.
        entry = table.get(node)
        if entry is None or entry[0] or node in consumed:
            raise _SpliceError(node)
        consumed.add(node)
        return _native_value(entry[1])
    return node


def _native_value(value: Any) -> Any:
    """What dumping ``value`` and parsing it back produces, without YAML.

    Containers are copied (the text path always yields fresh objects, and
    aliasing chart values into documents would let caller mutations corrupt
    the chart), tuples become lists, scalars pass through -- PyYAML's
    emitter quotes any string the resolver would re-type, so strings are
    round-trip stable.  Exotic types abort the splice; the text-path
    fallback then reproduces the reference behaviour, errors included.
    """
    kind = type(value)
    if kind is str or kind is bool or kind is int or kind is float or value is None:
        return value
    if kind is dict or isinstance(value, Mapping):
        return {_native_key(key): _native_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native_value(item) for item in value]
    if isinstance(value, (str, bool, int, float)):
        # Scalar subclasses, after the container checks (a str subclass is
        # not a Mapping; behaviour matches the pre-fast-path ordering).
        return value
    raise _SpliceError(value)


def _native_key(key: Any) -> Any:
    """Mapping keys must stay scalar: YAML would turn a tuple key into an
    (unhashable) list and fail the parse -- the fallback reproduces that."""
    if isinstance(key, (str, bool, int, float)) or key is None:
        return key
    raise _SpliceError(key)


# ---------------------------------------------------------------------------
# Fast parser for the block-YAML subset skeletons and chart files use
# ---------------------------------------------------------------------------
#
# Rendered manifests, ``values.yaml`` and ``Chart.yaml`` are almost entirely
# plain block YAML: nested mappings, block sequences, inline scalars, the
# occasional ``{}``/``[]``, and in hand-written chart files comments.
# Parsing that subset directly is several times faster than a general YAML
# load (even libyaml's C scanner pays Python-side construction and
# resolution).  The parser *must never guess*: any construct outside the
# subset -- flow collections, quotes it cannot decode exactly, anchors,
# tags, block scalars, tabs, characters PyYAML refuses, a comment on a line
# with a quote, multi-line or ambiguous plain scalars -- raises
# ``_UnsupportedYaml`` and the caller re-parses with PyYAML.  Scalar
# resolution replicates PyYAML's YAML 1.1 ``SafeLoader`` rules (booleans,
# ints with base prefixes, floats, nulls); anything it is not sure about
# (timestamps, sexagesimals, ``=``, a base prefix without digits, a decimal
# past ``int()``'s digit limit) bails out.

_BOOL_VALUES = {
    "yes": True, "Yes": True, "YES": True, "true": True, "True": True, "TRUE": True,
    "on": True, "On": True, "ON": True,
    "no": False, "No": False, "NO": False, "false": False, "False": False,
    "FALSE": False, "off": False, "Off": False, "OFF": False,
}
_NULL_VALUES = frozenset(("~", "null", "Null", "NULL"))
_INT_PLAIN_RE = re.compile(r"[-+]?(?:0|[1-9][0-9_]*)\Z")
_INT_BASE_RE = re.compile(r"[-+]?0(?:b[0-1_]+|x[0-9a-fA-F_]+|[0-7_]+)\Z")
_FLOAT_PLAIN_RE = re.compile(
    r"(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?"
    r"|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
    r"|[-+]?\.(?:inf|Inf|INF)"
    r"|\.(?:nan|NaN|NAN))\Z"
)
#: Plain scalars PyYAML may resolve to types we do not reproduce: timestamps
#: (dates), sexagesimal numbers (handled by the ``:`` bail-out anyway), the
#: ``=`` value special and the ``<<`` merge key, which SafeLoader refuses
#: as a value.  Conservative by construction.
_AMBIGUOUS_PLAIN_RE = re.compile(r"(?:[0-9][0-9]{3}-[0-9][0-9]?-[0-9][0-9]?|=|<<)")
#: Leading characters that start YAML constructs outside the subset.
_UNSUPPORTED_LEAD = tuple("&*!|>%@`?,}]")
#: What PyYAML's reader refuses anywhere: the complement of its printable set.
_NON_PRINTABLE = "\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x84\x86-\x9f\ud800-\udfff\ufffe\uffff"
#: Characters that keep a value run inline: tabs, ``#`` (a comment may
#: start there), the YAML 1.1 line breaks the parser does not split on, and
#: what PyYAML refuses.
_UNSUPPORTED_CHARS_RE = re.compile(f"[\t#\r\x85\u2028\u2029{_NON_PRINTABLE}]")
#: Characters that send a whole text to PyYAML: the same less ``#``, plus a
#: byte-order mark anywhere but at the start (libyaml skips one at any line
#: start, the pure-Python reader only at the start of the stream).
_UNSUPPORTED_TEXT_RE = re.compile(f"[\t\r\x85\u2028\u2029\ufeff{_NON_PRINTABLE}]")
#: Flow indicators: inside a flow collection they end a plain scalar.
_FLOW_INDICATOR_RE = re.compile(r"[,\[\]{}]")


def parse_simple_yaml(text: str) -> list[Any]:
    """Parse block-YAML subset ``text`` into its (non-empty) documents.

    A byte-order mark opening the text is skipped, as PyYAML skips it.
    Comments are read conservatively: a line whose content starts with
    ``#`` is skipped, and a line with no quote character is cut at its
    first ``" #"``; a line holding both a ``#`` and a quote leaves the
    subset.  Raises :class:`_UnsupportedYaml` whenever the text could mean
    anything the subset does not model bit-exactly; the caller falls back
    to PyYAML.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    if _UNSUPPORTED_TEXT_RE.search(text):
        # Tabs, every non-"\n" YAML 1.1 line break (CR, NEL, LS, PS) --
        # this parser splits on "\n" only, PyYAML does not -- an inner
        # byte-order mark, and what PyYAML's reader refuses.
        raise _UnsupportedYaml("tabs, exotic line breaks or unprintable characters")
    lines: list[tuple[int, str]] = []
    for raw in text.split("\n"):
        stripped = raw.strip(" ")
        if not stripped or stripped[0] == "#":
            continue
        if "#" in stripped:
            stripped = _cut_comment(stripped)
        if stripped.startswith(("---", "...")):
            raise _UnsupportedYaml("document markers in group text")
        lines.append((len(raw) - len(raw.lstrip(" ")), stripped))
    if not lines:
        return []
    value, next_index = _parse_node(lines, 0, lines[0][0])
    if next_index != len(lines):
        raise _UnsupportedYaml("trailing content")
    return [value] if value is not None else []


def _cut_comment(content: str) -> str:
    """``content`` without its trailing comment.

    A ``#`` starts a comment only after a space (``a#b`` is one plain
    scalar).  Inside quotes it may be text, so a line holding a quote is
    left to PyYAML.
    """
    if "'" in content or '"' in content:
        raise _UnsupportedYaml("comment character on a line with quotes")
    cut = content.find(" #")
    return content if cut < 0 else content[:cut].rstrip(" ")


def _parse_node(lines: list[tuple[int, str]], index: int, indent: int) -> tuple[Any, int]:
    content = lines[index][1]
    if content == "-" or content.startswith("- "):
        return _parse_sequence(lines, index, indent)
    if content.endswith(":") or ": " in content:
        return _parse_mapping(lines, index, indent)
    value = _resolve_flow(content)
    index += 1
    if index < len(lines) and lines[index][0] >= indent:
        raise _UnsupportedYaml("multi-line scalar")
    return value, index


def _parse_mapping(lines: list[tuple[int, str]], index: int, indent: int) -> tuple[dict, int]:
    out: dict = {}
    total = len(lines)
    while index < total:
        line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent or content == "-" or content.startswith("- "):
            raise _UnsupportedYaml("irregular mapping layout")
        key, rest = _split_key(content)
        if rest:
            out[key] = _resolve_flow(rest)
            index += 1
            if index < total and lines[index][0] > indent:
                raise _UnsupportedYaml("continuation under inline value")
        else:
            index += 1
            if index < total and lines[index][0] > indent:
                out[key], index = _parse_node(lines, index, lines[index][0])
            elif index < total and lines[index][0] == indent and (
                lines[index][1] == "-" or lines[index][1].startswith("- ")
            ):
                # Block sequences may sit at the same indent as their key.
                out[key], index = _parse_sequence(lines, index, indent)
            else:
                out[key] = None
    return out, index


def _parse_sequence(lines: list[tuple[int, str]], index: int, indent: int) -> tuple[list, int]:
    items: list = []
    total = len(lines)
    while index < total:
        line_indent, content = lines[index]
        if line_indent != indent or not (content == "-" or content.startswith("- ")):
            if line_indent > indent:
                raise _UnsupportedYaml("irregular sequence layout")
            break
        if content == "-":
            index += 1
            if index < total and lines[index][0] > indent:
                value, index = _parse_node(lines, index, lines[index][0])
            else:
                value = None
        else:
            inner = content[2:].lstrip(" ")
            inner_indent = indent + (len(content) - len(inner))
            # Re-enter the parser as if the inline content started a line of
            # its own at its real column; continuation lines line up with it.
            lines[index] = (inner_indent, inner)
            value, index = _parse_node(lines, index, inner_indent)
        items.append(value)
    return items, index


#: Successful key-split memo: manifest lines repeat heavily across rendered
#: charts (``apiVersion: v1``, ``metadata:``, ``protocol: TCP``...), so the
#: split + scalar resolution runs once per distinct line.  Results are
#: ``(resolved key, rest)`` tuples of immutable scalars/strings, safe to
#: share; unsupported lines keep raising (never memoized).
_SPLIT_KEY_MEMO: dict[str, tuple[Any, str]] = {}
_SPLIT_KEY_MEMO_MAXSIZE = 16384


def _split_key(content: str) -> tuple[Any, str]:
    """Split ``key: value`` / ``key:`` content into (resolved key, rest)."""
    cached = _SPLIT_KEY_MEMO.get(content)
    if cached is not None:
        return cached
    return remember(
        _SPLIT_KEY_MEMO, content, _split_key_uncached(content), _SPLIT_KEY_MEMO_MAXSIZE
    )


def _split_key_uncached(content: str) -> tuple[Any, str]:
    if content.endswith(":") and ": " not in content:
        key_text, rest = content[:-1], ""
    else:
        cut = content.find(": ")
        if cut < 0:
            raise _UnsupportedYaml("scalar line in mapping context")
        key_text, rest = content[:cut], content[cut + 2 :].strip(" ")
        if ": " in rest or rest.endswith(":"):
            raise _UnsupportedYaml("nested colon in value")
    # Spaces between a plain key and its colon are not part of the key.
    key_text = key_text.rstrip(" ")
    if not key_text or key_text[0] in "\"'{[" or key_text.startswith(_UNSUPPORTED_LEAD):
        raise _UnsupportedYaml("non-plain mapping key")
    return _resolve_plain(key_text), rest


def _resolve_flow(text: str) -> Any:
    """Resolve an inline value: empty flow collections, quotes, or plain."""
    if text == "{}":
        return {}
    if text == "[]":
        return []
    first = text[0]
    if first in "\"'":
        if len(text) < 2 or text[-1] != first or text.find(first, 1) != len(text) - 1:
            raise _UnsupportedYaml("complex quoted scalar")
        body = text[1:-1]
        if "\\" in body:
            raise _UnsupportedYaml("escape sequence")
        return body
    if first in "{[" or first in _UNSUPPORTED_LEAD or (first == "-"
                                                       and not text[1:2].strip()):
        # A lone "-" included: in value position it is a block-sequence
        # indicator PyYAML rejects, never the string "-".
        raise _UnsupportedYaml("flow or special construct")
    return _resolve_plain(text)


#: Resolution memo: mapping keys and plain scalars repeat across every
#: rendered manifest (``metadata``, ``spec``, ``containers``, protocol
#: names, ...), so the per-scalar resolver runs its regex cascade once per
#: distinct string.  Only successful resolutions are memoized (unsupported
#: scalars must keep raising for the PyYAML fallback); resolved values are
#: immutable scalars, safe to share.
_PLAIN_MEMO: dict[str, Any] = {}
_PLAIN_MEMO_MAXSIZE = 16384


def _resolve_plain(text: str) -> Any:
    """YAML 1.1 plain-scalar resolution, exactly where it is unambiguous."""
    try:
        return _PLAIN_MEMO[text]
    except KeyError:
        pass
    if ":" in text:
        # Sexagesimal ints/floats and odd mapping shapes live here.
        raise _UnsupportedYaml("colon in plain scalar")
    return remember(_PLAIN_MEMO, text, _resolve_plain_uncached(text), _PLAIN_MEMO_MAXSIZE)


def _resolve_plain_uncached(text: str) -> Any:
    if text in _BOOL_VALUES:
        return _BOOL_VALUES[text]
    if text in _NULL_VALUES:
        return None
    head = text[0]
    if head.isdigit() or head in "+-.":
        if _INT_PLAIN_RE.match(text):
            try:
                return int(text.replace("_", ""))
            except ValueError:
                # Past int()'s digit limit; PyYAML's constructor raises too.
                raise _UnsupportedYaml("integer too long to convert") from None
        if _INT_BASE_RE.match(text):
            return _int_with_base(text)
        if _FLOAT_PLAIN_RE.match(text):
            return _float_value(text)
        if _AMBIGUOUS_PLAIN_RE.match(text):
            raise _UnsupportedYaml("ambiguous scalar")
    if _AMBIGUOUS_PLAIN_RE.match(text):
        raise _UnsupportedYaml("ambiguous scalar")
    return text


def _int_with_base(text: str) -> int:
    sign = -1 if text[0] == "-" else 1
    magnitude = text.lstrip("+-").replace("_", "")
    if magnitude in ("0b", "0x"):
        # PyYAML's rule matches, and its constructor raises ValueError.
        raise _UnsupportedYaml("base prefix without digits")
    if magnitude.startswith("0b"):
        return sign * int(magnitude[2:], 2)
    if magnitude.startswith("0x"):
        return sign * int(magnitude[2:], 16)
    return sign * int(magnitude[1:] or "0", 8)


#: PyYAML's NaN: one object for every ``.nan``, computed the way its
#: ``SafeConstructor`` computes it.  Both show: its sign bit is set (so
#: ``marshal``, and with it the chart fingerprint, sees the same bytes), and
#: two ``.nan`` keys of one mapping are one key.
_NAN = -math.inf / math.inf


def _float_value(text: str) -> float:
    lowered = text.replace("_", "").lower()
    if lowered.endswith(".inf"):
        return float("-inf") if lowered[0] == "-" else float("inf")
    if lowered.endswith(".nan"):
        return _NAN
    return float(lowered)
