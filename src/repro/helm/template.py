"""A Go-template subset engine sufficient to render Helm charts.

Helm templates are Go ``text/template`` documents extended with the Sprig
function library.  This module implements the subset that real-world charts
rely on for the networking-relevant parts the paper studies:

* actions ``{{ ... }}`` with whitespace trimming (``{{-``, ``-}}``);
* dotted paths rooted at the current context (``.Values.service.port``),
  the root context (``$.Values...``) and template variables (``$name``);
* pipelines (``.Values.tag | default "latest" | quote``);
* control structures ``if``/``else if``/``else``, ``range``, ``with``,
  ``define``/``include``/``template``;
* the most common Sprig/Go functions (``default``, ``quote``, ``toYaml``,
  ``nindent``, ``printf``, comparison and boolean helpers, ...).

Templates are parsed into a small AST and then *compiled*: every node and
every pipeline expression becomes a precomputed closure (dotted paths are
pre-split, literals pre-decoded, functions resolved against a shared dispatch
table), so rendering pays no per-render tokenization, parsing or token
re-interpretation.  Compiled templates are cached module-wide keyed on their
content, which makes repeated renders of the same chart amortized-free:
only the first render of a given template source parses anything at all
(``template_parse_count`` exposes the parse counter for guard tests).

Compiled closures emit **fragments** rather than plain strings: literal text
stays ``str``, an interpolated expression becomes a :class:`ScalarFragment`,
a ``toYaml`` pipeline (optionally piped through ``nindent`` / ``indent``)
becomes a :class:`StructuredFragment` carrying the *native* Python value,
``---`` separator lines found in literal text become :class:`DocumentSplit`
markers at compile time, and a statement-level ``include`` (optionally piped
through ``nindent`` / ``indent``) emits the define's own fragment stream,
re-indented, instead of one joined string.  The classic text path joins
the fragments back into the exact byte stream the pre-fragment engine
produced (``CompiledTemplate.render``), while the structured render path
(``repro.helm.structured``) splices the native values straight into parsed
documents without ever dumping them to YAML text.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any, Callable, Sequence

from .. import faults
from ..k8s.yamlio import pyyaml, yaml_dump, yaml_load
from ..memo import remember
from .errors import TemplateError
from .values import in_key_order, sorted_keys, sorted_tree

# --------------------------------------------------------------------------
# Lexing
# --------------------------------------------------------------------------

_ACTION_RE = re.compile(r"\{\{(-?)\s*(.*?)\s*(-?)\}\}", re.DOTALL)


@dataclass
class _RawAction:
    """A single ``{{ ... }}`` action with trim markers and source position."""

    content: str
    trim_left: bool
    trim_right: bool
    line: int


def _split_source(source: str) -> list[str | _RawAction]:
    """Split template source into literal text and raw actions."""
    parts: list[str | _RawAction] = []
    position = 0
    for match in _ACTION_RE.finditer(source):
        if match.start() > position:
            parts.append(source[position : match.start()])
        line = source.count("\n", 0, match.start()) + 1
        parts.append(
            _RawAction(
                content=match.group(2).strip(),
                trim_left=match.group(1) == "-",
                trim_right=match.group(3) == "-",
                line=line,
            )
        )
        position = match.end()
    if position < len(source):
        parts.append(source[position:])
    return parts


def _apply_trimming(parts: list[str | _RawAction]) -> list[str | _RawAction]:
    """Apply ``{{-`` / ``-}}`` whitespace trimming to adjacent text chunks."""
    trimmed: list[str | _RawAction] = list(parts)
    for index, part in enumerate(trimmed):
        if not isinstance(part, _RawAction):
            continue
        if part.trim_left and index > 0 and isinstance(trimmed[index - 1], str):
            trimmed[index - 1] = trimmed[index - 1].rstrip(" \t\n\r")  # type: ignore[union-attr]
        if part.trim_right and index + 1 < len(trimmed) and isinstance(trimmed[index + 1], str):
            trimmed[index + 1] = trimmed[index + 1].lstrip(" \t\n\r")  # type: ignore[union-attr]
    return trimmed


# --------------------------------------------------------------------------
# Expression tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(
        "(?:[^"\\]|\\.)*"          # double-quoted string
      | `[^`]*`                    # backtick string
      | -?\d+\.\d+                 # float
      | -?\d+                      # int
      | \$[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*   # variable (optionally with path)
      | \$\.[A-Za-z0-9_][A-Za-z0-9_.]*                 # root-relative path ($.Values.x)
      | \$                         # bare root variable
      | \.[A-Za-z_][A-Za-z0-9_.]*  # dotted path
      | \.                         # bare dot
      | [A-Za-z_][A-Za-z0-9_]*     # identifier / function name
      | :=                         # declaration
      | \|                         # pipe
      | [()]                       # parentheses
      | ,                          # comma (range var list)
    )""",
    re.VERBOSE,
)


def tokenize_expression(expression: str) -> list[str]:
    """Split an action expression into tokens."""
    tokens: list[str] = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if not match:
            remainder = expression[position:].strip()
            if not remainder:
                break
            raise TemplateError(f"cannot tokenize expression near {remainder!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------


@dataclass
class TextNode:
    """Literal template text between actions."""

    text: str


@dataclass
class ActionNode:
    """A ``{{ pipeline }}`` output action."""

    tokens: list[str]
    line: int = 0


@dataclass
class IfNode:
    """An ``if``/``else if``/``else`` chain."""

    #: ``(condition_tokens, body)`` pairs; a ``None`` condition is the else arm.
    branches: list[tuple[list[str] | None, list[Any]]] = field(default_factory=list)


@dataclass
class RangeNode:
    """A ``range`` loop with optional key/value variables."""

    tokens: list[str]
    key_var: str = ""
    value_var: str = ""
    body: list[Any] = field(default_factory=list)
    else_body: list[Any] = field(default_factory=list)


@dataclass
class WithNode:
    """A ``with`` block re-scoping the dot."""

    tokens: list[str]
    body: list[Any] = field(default_factory=list)
    else_body: list[Any] = field(default_factory=list)


@dataclass
class DefineNode:
    """A named ``define`` block (an ``include`` target)."""

    name: str
    body: list[Any] = field(default_factory=list)


@dataclass
class VariableNode:
    """A ``$name := pipeline`` assignment."""

    name: str
    tokens: list[str] = field(default_factory=list)


Node = Any


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    """Builds an AST from the interleaved text/action stream."""

    def __init__(self, parts: list[str | _RawAction], template_name: str) -> None:
        self._parts = parts
        self._template_name = template_name
        self._index = 0

    def parse(self) -> list[Node]:
        nodes, terminator = self._parse_block(expect_end=False)
        if terminator is not None:
            raise TemplateError(
                f"unexpected {terminator!r} outside of a block", self._template_name
            )
        return nodes

    # Internal helpers -------------------------------------------------------
    def _next_part(self) -> str | _RawAction | None:
        if self._index >= len(self._parts):
            return None
        part = self._parts[self._index]
        self._index += 1
        return part

    def _parse_block(self, expect_end: bool) -> tuple[list[Node], str | None]:
        """Parse nodes until ``end``/``else`` or end of input.

        Returns the parsed nodes and the keyword that terminated the block
        (``"end"``, ``"else"``, ``"else if"`` with its tokens attached, or
        ``None`` at end of input).
        """
        nodes: list[Node] = []
        while True:
            part = self._next_part()
            if part is None:
                if expect_end:
                    raise TemplateError("missing {{ end }}", self._template_name)
                return nodes, None
            if isinstance(part, str):
                nodes.append(TextNode(part))
                continue
            content = part.content
            if not content or content.startswith("/*"):
                continue
            keyword, _, rest = content.partition(" ")
            if keyword == "end":
                return nodes, "end"
            if keyword == "else":
                self._pending_else = rest.strip()
                return nodes, "else"
            if keyword == "if":
                nodes.append(self._parse_if(rest))
            elif keyword == "range":
                nodes.append(self._parse_range(rest))
            elif keyword == "with":
                nodes.append(self._parse_with(rest))
            elif keyword == "define":
                nodes.append(self._parse_define(rest))
            elif keyword == "template":
                # {{ template "name" ctx }} is equivalent to include without pipe.
                nodes.append(ActionNode(["include"] + tokenize_expression(rest), part.line))
            elif keyword.startswith("$") and rest.startswith(":="):
                nodes.append(
                    VariableNode(name=keyword, tokens=tokenize_expression(rest[2:].strip()))
                )
            else:
                nodes.append(ActionNode(tokenize_expression(content), part.line))

    def _parse_if(self, condition: str) -> IfNode:
        node = IfNode()
        tokens = tokenize_expression(condition)
        while True:
            body, terminator = self._parse_block(expect_end=True)
            node.branches.append((tokens, body))
            if terminator == "end":
                return node
            # terminator == "else": either a plain else or an "else if ..."
            pending = getattr(self, "_pending_else", "")
            if pending.startswith("if "):
                tokens = tokenize_expression(pending[3:])
                continue
            else_body, terminator = self._parse_block(expect_end=True)
            node.branches.append((None, else_body))
            if terminator != "end":
                raise TemplateError("malformed if/else block", self._template_name)
            return node

    def _parse_range(self, expression: str) -> RangeNode:
        key_var = value_var = ""
        if ":=" in expression:
            declaration, _, expression = expression.partition(":=")
            variables = [var.strip() for var in declaration.split(",") if var.strip()]
            if len(variables) == 1:
                value_var = variables[0]
            elif len(variables) == 2:
                key_var, value_var = variables
            else:
                raise TemplateError("range accepts at most two variables", self._template_name)
        node = RangeNode(
            tokens=tokenize_expression(expression.strip()),
            key_var=key_var,
            value_var=value_var,
        )
        body, terminator = self._parse_block(expect_end=True)
        node.body = body
        if terminator == "else":
            node.else_body, terminator = self._parse_block(expect_end=True)
        if terminator != "end":
            raise TemplateError("malformed range block", self._template_name)
        return node

    def _parse_with(self, expression: str) -> WithNode:
        node = WithNode(tokens=tokenize_expression(expression.strip()))
        body, terminator = self._parse_block(expect_end=True)
        node.body = body
        if terminator == "else":
            node.else_body, terminator = self._parse_block(expect_end=True)
        if terminator != "end":
            raise TemplateError("malformed with block", self._template_name)
        return node

    def _parse_define(self, expression: str) -> DefineNode:
        tokens = tokenize_expression(expression.strip())
        if not tokens or not tokens[0].startswith('"'):
            raise TemplateError("define requires a quoted template name", self._template_name)
        name = tokens[0][1:-1]
        body, terminator = self._parse_block(expect_end=True)
        if terminator != "end":
            raise TemplateError("malformed define block", self._template_name)
        return DefineNode(name=name, body=body)


def parse_template(source: str, template_name: str = "") -> list[Node]:
    """Parse template source into an AST."""
    parts = _apply_trimming(_split_source(source))
    return _Parser(parts, template_name).parse()


# --------------------------------------------------------------------------
# Rendering context
# --------------------------------------------------------------------------


class RenderContext:
    """Evaluation state: the dot, the root context, and template variables."""

    def __init__(self, root: Any, dot: Any = None, variables: dict[str, Any] | None = None) -> None:
        self.root = root
        self.dot = root if dot is None else dot
        self.variables = dict(variables or {})

    def child(self, dot: Any) -> "RenderContext":
        """A nested scope with a new dot (``with``/``range`` bodies)."""
        return RenderContext(self.root, dot, self.variables)


def _resolve_path(base: Any, path: Sequence[str]) -> Any:
    current = base
    for part in path:
        if isinstance(current, Mapping):
            current = current.get(part)
        else:
            current = getattr(current, part, None)
        if current is None:
            return None
    return current


def _is_truthy(value: Any) -> bool:
    """Go template truthiness: zero values, empty collections and None are false."""
    if value is None or value is False:
        return False
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value != 0
    if isinstance(value, (str, list, tuple, dict, set)):
        return len(value) > 0
    return True


def _to_yaml(value: Any) -> str:
    text = yaml_dump(value, default_flow_style=False, sort_keys=False)
    return text.rstrip("\n")


def _indent(spaces: int, text: str) -> str:
    prefix = " " * int(spaces)
    return "\n".join(prefix + line if line else line for line in str(text).split("\n"))


def _format_value(value: Any) -> str:
    """Convert an evaluated value to template output text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# --------------------------------------------------------------------------
# Fragments: what compiled closures emit
# --------------------------------------------------------------------------


class StructuredFragment:
    """A native value emitted by a compiled ``toYaml`` pipeline.

    The text path stringifies it exactly the way the pre-fragment engine
    did (``"\\n"`` for ``nindent``, then the indented YAML dump); the
    structured path splices :attr:`value` into the parsed document without
    ever dumping it.
    """

    __slots__ = ("value", "indent", "leading_newline")

    def __init__(self, value: Any, indent: int = 0, leading_newline: bool = False) -> None:
        self.value = value
        self.indent = indent
        self.leading_newline = leading_newline

    def text(self) -> str:
        """The exact text the ``toYaml``(+``nindent``/``indent``) stage emits."""
        try:
            dumped = _to_yaml(self.value)
        except Exception as exc:  # noqa: BLE001 - mirror run_function's wrapping
            raise TemplateError(f"error calling toYaml: {exc}") from exc
        rendered = _indent(self.indent, dumped) if self.indent else dumped
        return "\n" + rendered if self.leading_newline else rendered


class ScalarFragment:
    """The rendered text of one interpolated expression (``{{ .Values.x }}``).

    The text path concatenates :attr:`rendered` verbatim -- byte-identical
    to the plain-string emission this class replaced.  The structured
    assembler opens a *value run* at a scalar in a whole value position
    (``key: {{ .x }}`` / ``- {{ .x }}``): the run absorbs glued text and
    scalars up to the line break (``name: {{ .rel }}-{{ .name }}``), and a
    run the strict resolver can type becomes one placeholder, so the
    skeleton parse memo keys on the template's shape instead of the
    interpolated values: override-variant sweeps (the Figure 4b runs)
    re-render the same chart with different names and would otherwise miss
    the memo on every variant.  Anything unclear about the run falls back
    to emitting its text inline, exactly as before.
    """

    __slots__ = ("rendered",)

    def __init__(self, rendered: str) -> None:
        self.rendered = rendered

    def text(self) -> str:
        """The rendered expression text, for the text path."""
        return self.rendered


class DocumentSplit:
    """A ``---`` separator line detected in literal template text.

    Document boundaries become list splits for the structured path; the
    text path re-emits :attr:`literal` unchanged.  The marker is only a
    *candidate* boundary: the assembler honours it iff it lands at the
    start of an output line (see ``repro.helm.structured``).
    """

    __slots__ = ("literal",)

    def __init__(self, literal: str) -> None:
        self.literal = literal

    def text(self) -> str:
        """The literal separator bytes, for the text path."""
        return self.literal


#: What compiled renderers append to their output sink.
Fragment = Any  # str | ScalarFragment | StructuredFragment | DocumentSplit


def fragments_text(fragments: Sequence[Fragment]) -> str:
    """Join fragments into the byte-identical classic text rendering."""
    return "".join(
        fragment if type(fragment) is str else fragment.text() for fragment in fragments
    )


#: Separator lines eligible for compile-time document splitting.  The match
#: must include the trailing newline: a ``---`` dangling at the very end of a
#: text node could be continued by the next action's output, so it stays
#: literal text (the scoped-parse fallback still handles it correctly).
_DOC_SPLIT_RE = re.compile(r"(?m)^---[ \t]*\n")


# --------------------------------------------------------------------------
# Compiler: AST -> closures
# --------------------------------------------------------------------------

#: A compiled node: appends its output fragments to the sink list given the
#: engine (for ``include``) and the evaluation state.
Renderer = Callable[["TemplateEngine", RenderContext, list], None]
#: A compiled expression term or pipeline: produces a value.
ValueFn = Callable[["TemplateEngine", RenderContext], Any]

_INT_RE = re.compile(r"-?\d+")
_FLOAT_RE = re.compile(r"-?\d+\.\d+")


@dataclass
class CompiledTemplate:
    """One template source compiled to closures, plus its ``define`` blocks.

    Only the compiled form is kept -- the parse AST is discarded after
    compilation so the process-wide compile cache stores closures, not trees.
    """

    name: str
    renderers: list[Renderer]
    defines: dict[str, list[Renderer]]

    def render_fragments(self, engine: "TemplateEngine", ctx: RenderContext) -> list[Fragment]:
        """Render into the raw fragment stream (the structured path input)."""
        out: list[Fragment] = []
        for fn in self.renderers:
            fn(engine, ctx, out)
        return out

    def render(self, engine: "TemplateEngine", ctx: RenderContext) -> str:
        """Render to text, byte-identical to the pre-fragment engine."""
        return fragments_text(self.render_fragments(engine, ctx))


def _constant(value: Any) -> ValueFn:
    return lambda engine, ctx: value


def _compile_term(token: str) -> ValueFn:
    """Compile a single expression token into a value closure.

    The checks mirror the term grammar exactly; all string decoding and path
    splitting happens here, once, instead of on every evaluation.
    """
    if token.startswith('"'):
        return _constant(
            token[1:-1].replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
        )
    if token.startswith("`"):
        return _constant(token[1:-1])
    if token == "true":
        return _constant(True)
    if token == "false":
        return _constant(False)
    if token == "nil":
        return _constant(None)
    if _INT_RE.fullmatch(token):
        return _constant(int(token))
    if _FLOAT_RE.fullmatch(token):
        return _constant(float(token))
    if token == ".":
        return lambda engine, ctx: ctx.dot
    if token == "$":
        return lambda engine, ctx: ctx.root
    if token.startswith("$."):
        root_parts = tuple(part for part in token[2:].split(".") if part)
        return lambda engine, ctx: _resolve_path(ctx.root, root_parts)
    if token.startswith("$"):
        name, _, rest = token.partition(".")
        var_parts = tuple(rest.split(".")) if rest else ()

        def lookup_variable(engine: "TemplateEngine", ctx: RenderContext) -> Any:
            if name not in ctx.variables:
                raise TemplateError(f"undefined template variable {name!r}")
            base = ctx.variables[name]
            return _resolve_path(base, var_parts) if var_parts else base

        return lookup_variable
    if token.startswith("."):
        parts = tuple(part for part in token.split(".") if part)
        if len(parts) == 1:
            key = parts[0]

            def lookup_attr(engine: "TemplateEngine", ctx: RenderContext) -> Any:
                dot = ctx.dot
                if isinstance(dot, Mapping):
                    return dot.get(key)
                return getattr(dot, key, None)

            return lookup_attr
        return lambda engine, ctx: _resolve_path(ctx.dot, parts)
    # Bare identifier used as a value (rare); treat as function call with no args.
    return _compile_stage([token], piped=False)


def _compile_terms(tokens: Sequence[str]) -> list[ValueFn]:
    """Compile each term of a command, handling parenthesised pipelines."""
    fns: list[ValueFn] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token == "(":
            depth = 1
            closing = index + 1
            while closing < len(tokens) and depth:
                if tokens[closing] == "(":
                    depth += 1
                elif tokens[closing] == ")":
                    depth -= 1
                closing += 1
            if depth:
                raise TemplateError("unbalanced parentheses in expression")
            fns.append(_compile_pipeline(tokens[index + 1 : closing - 1]))
            index = closing
            continue
        fns.append(_compile_term(token))
        index += 1
    return fns


def _compile_stage(tokens: Sequence[str], piped: bool) -> Callable[..., Any]:
    """Compile one pipeline stage.

    Non-first stages receive the previous stage's value as a third argument
    and append it as the final function argument, mirroring Go template
    semantics.  The returned closure takes ``(engine, ctx)`` for the first
    stage and ``(engine, ctx, piped_value)`` otherwise.
    """
    if not tokens:
        if piped:
            return lambda engine, ctx, value: value
        return lambda engine, ctx: None
    head = tokens[0]
    head_is_function = (
        not head.startswith(('"', "`", ".", "$", "("))
        and not head.lstrip("-").replace(".", "").isdigit()
        and head not in ("true", "false", "nil")
    )
    if head_is_function:
        arg_fns = tuple(_compile_terms(tokens[1:]))
        if head == "include":

            def run_include(engine: "TemplateEngine", ctx: RenderContext, *piped_value: Any) -> Any:
                name, dot = _include_target(arg_fns, engine, ctx, piped_value)
                return engine.include(name, dot, ctx)

            return run_include
        function = _FUNCTIONS.get(head)
        if function is None:
            # Unknown functions stay lazy: the error only fires if the stage
            # is actually evaluated (it may sit in a never-taken branch).
            def unknown(engine: "TemplateEngine", ctx: RenderContext, *piped_value: Any) -> Any:
                raise TemplateError(f"unknown template function {head!r}")

            return unknown

        def run_function(engine: "TemplateEngine", ctx: RenderContext, *piped_value: Any) -> Any:
            args = [fn(engine, ctx) for fn in arg_fns]
            args.extend(piped_value)
            try:
                return function(*args)
            except TemplateError:
                raise
            except Exception as exc:  # noqa: BLE001 - surface as template error
                raise TemplateError(f"error calling {head}: {exc}") from exc

        return run_function
    term_fns = _compile_terms(tokens)
    if len(term_fns) == 1:
        fn = term_fns[0]
        if piped:
            return lambda engine, ctx, value, fn=fn: fn(engine, ctx)
        return fn
    expression = " ".join(tokens)

    def unsupported(engine: "TemplateEngine", ctx: RenderContext, *piped_value: Any) -> Any:
        raise TemplateError(f"cannot evaluate expression: {expression!r}")

    return unsupported


def _include_target(
    arg_fns: Sequence[ValueFn],
    engine: "TemplateEngine",
    ctx: RenderContext,
    piped_value: Sequence[Any] = (),
) -> tuple[str, Any]:
    """Evaluate an ``include``'s arguments into ``(template name, dot)``."""
    args = [fn(engine, ctx) for fn in arg_fns]
    args.extend(piped_value)
    if not args:
        raise TemplateError("include requires a template name")
    return str(args[0]), args[1] if len(args) > 1 else ctx.dot


def _pipe_segments(tokens: Sequence[str]) -> list[list[str]]:
    """Split pipeline tokens into stages at top-level ``|`` separators."""
    segments: list[list[str]] = [[]]
    depth = 0
    for token in tokens:
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        if token == "|" and depth == 0:
            segments.append([])
        else:
            segments[-1].append(token)
    return segments


def _native_roundtrip(value: Any) -> Any:
    """What ``fromYaml (toYaml value)`` produces, without the text round trip.

    Plain trees (mappings, sequences, scalars) survive a YAML dump/load as
    fresh copies with tuples becoming lists and keys sorted, as
    ``fromYaml`` sorts them; anything subtler -- strings the
    YAML resolver would re-type (``"2024-01-01"``, ``"yes"``), exotic
    objects -- falls back to the real dump+load so the peephole is
    observation-equivalent to the two text stages it replaces.
    """
    try:
        return _native_yaml_copy(value)
    except _NotPlainYaml:
        pass
    try:
        return sorted_tree(yaml_load(_to_yaml(value)))
    except TemplateError:
        raise
    except Exception as exc:  # noqa: BLE001 - mirror run_function's wrapping
        raise TemplateError(f"error calling toYaml: {exc}") from exc


class _NotPlainYaml(Exception):
    """Raised when a value cannot be round-tripped without real YAML."""


@functools.cache
def _yaml_resolver() -> Any:
    """PyYAML's implicit-tag resolver, built on first use."""
    return pyyaml().resolver.Resolver()


def _native_yaml_copy(value: Any) -> Any:
    if isinstance(value, str):
        tag = _yaml_resolver().resolve(pyyaml().nodes.ScalarNode, value, (True, False))
        if tag != "tag:yaml.org,2002:str":
            raise _NotPlainYaml(value)
        return value
    if isinstance(value, (bool, int, float)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {
            _native_yaml_copy(key): _native_yaml_copy(value[key]) for key in sorted_keys(value)
        }
    if isinstance(value, (list, tuple)):
        return [_native_yaml_copy(item) for item in value]
    raise _NotPlainYaml(value)


def _compile_pipeline(tokens: Sequence[str]) -> ValueFn:
    """Compile a full pipeline: stages separated by top-level ``|``.

    A ``toYaml | fromYaml`` stage pair collapses into a native round trip:
    the value never touches YAML text unless its type demands it.
    """
    segments = _pipe_segments(tokens)
    stages: list[Callable[..., Any]] = []
    index = 0
    roundtrip = lambda engine, ctx, value: _native_roundtrip(value)  # noqa: E731
    while index < len(segments):
        segment = segments[index]
        piped = bool(stages)
        pair = (
            index + 1 < len(segments)
            and segment and segment[0] == "toYaml"
            and segments[index + 1] == ["fromYaml"]
        )
        if pair and len(segment) > 1 and not piped:
            # ``fromYaml (toYaml X)`` head: evaluate X, round-trip natively.
            stages.append(_compile_stage(segment[1:], piped=False))
            stages.append(roundtrip)
            index += 2
        elif pair and len(segment) == 1 and piped:
            # ``... | toYaml | fromYaml``: collapse the pair into one stage.
            stages.append(roundtrip)
            index += 2
        else:
            stages.append(_compile_stage(segment, piped=piped))
            index += 1
    first = stages[0]
    if len(stages) == 1:
        return first
    rest = tuple(stages[1:])

    def run(engine: "TemplateEngine", ctx: RenderContext) -> Any:
        value = first(engine, ctx)
        for stage in rest:
            value = stage(engine, ctx, value)
        return value

    return run


def _render_nothing(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
    return None


def _compile_text_node(text: str) -> Renderer:
    """Compile literal text, carving out ``---`` document-boundary lines.

    Splitting happens once, at compile time; the render closure just extends
    the sink with the precomputed pieces.  Matches at offset 0 of the node
    are still only *candidates* (the preceding action's output may not end
    with a newline) -- the structured assembler re-checks line position at
    render time, and the text path re-emits the literal either way.
    """
    pieces: list[str | DocumentSplit] = []
    position = 0
    for match in _DOC_SPLIT_RE.finditer(text):
        if match.start() > position:
            pieces.append(text[position : match.start()])
        pieces.append(DocumentSplit(match.group(0)))
        position = match.end()
    if position < len(text):
        pieces.append(text[position:])
    if len(pieces) == 1 and isinstance(pieces[0], str):
        piece = pieces[0]

        def emit_text(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
            out.append(piece)

        return emit_text
    frozen = tuple(pieces)

    def emit_pieces(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
        out.extend(frozen)

    return emit_pieces


def _compile_structured_action(tokens: Sequence[str]) -> Renderer | None:
    """Compile a statement-level ``toYaml`` pipeline into a structured emit.

    Recognized shapes (the ones Helm charts actually use)::

        {{ toYaml .Values.x }}
        {{ .Values.x | toYaml }}
        {{ toYaml .Values.x | nindent 4 }}
        {{ .Values.x | toYaml | indent 6 }}

    Anything else returns ``None`` and compiles as ordinary text output.
    The emitted :class:`StructuredFragment` stringifies to the exact bytes
    of the text path, so one compiled form serves both render modes.
    """
    value_segments, indent, leading_newline = _split_indent_stage(_pipe_segments(tokens))
    tail = value_segments[-1]
    if tail == ["toYaml"] and len(value_segments) >= 2:
        value_fn = _compile_pipeline(
            [token for segment in value_segments[:-1] for token in segment + ["|"]][:-1]
        )
    elif len(value_segments) == 1 and len(tail) > 1 and tail[0] == "toYaml":
        term_fns = _compile_terms(tail[1:])
        if len(term_fns) != 1:
            return None
        value_fn = term_fns[0]
    else:
        return None

    def emit_structured(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
        out.append(StructuredFragment(value_fn(engine, ctx), indent, leading_newline))

    return emit_structured


def _split_indent_stage(
    segments: list[list[str]],
) -> tuple[list[list[str]], int, bool]:
    """Peel a trailing ``| nindent N`` / ``| indent N`` stage off a pipeline.

    Returns ``(value_segments, indent, leading_newline)``; a pipeline
    without such a stage comes back whole with ``(0, False)``.
    """
    last = segments[-1]
    if (
        len(segments) >= 2
        and len(last) == 2
        and last[0] in ("nindent", "indent")
        and _INT_RE.fullmatch(last[1])
    ):
        return segments[:-1], int(last[1]), last[0] == "nindent"
    return segments, 0, False


def _compile_include_action(tokens: Sequence[str]) -> Renderer | None:
    """Compile a statement-level ``include`` into a fragment-stream emit.

    Recognized shapes::

        {{ include "name" . }}
        {{ include "name" $ | nindent 4 }}
        {{ include "name" . | indent 2 }}

    The define's fragments (:meth:`TemplateEngine.include_fragments`) are
    re-indented by :func:`_indent`'s rule and emitted in place of one
    joined string, so their interpolated scalars reach the structured
    assembler as :class:`ScalarFragment` values.  The stream's text is
    byte-identical to the string pipeline it replaces.  Anything else
    returns ``None`` and compiles as an ordinary (string-valued) pipeline.
    """
    value_segments, indent, leading_newline = _split_indent_stage(_pipe_segments(tokens))
    head = value_segments[0]
    if len(value_segments) != 1 or not head or head[0] != "include":
        return None
    arg_fns = tuple(_compile_terms(head[1:]))
    pad = " " * indent

    def emit_include(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
        name, dot = _include_target(arg_fns, engine, ctx)
        fragments = engine.include_fragments(name, dot, ctx)
        if leading_newline:
            out.append("\n")
        if pad:
            _reindent_into(fragments, pad, out)
        else:
            out.extend(fragments)

    return emit_include


def _reindent_into(fragments: Sequence[Fragment], pad: str, out: list) -> None:
    """Append ``fragments`` to ``out`` with ``pad`` before every non-empty line.

    The fragment-stream form of :func:`_indent`: a line may span several
    fragments, so the pad lands before the first character of each
    non-empty line wherever that character sits, and blank lines stay
    blank.  A scalar that opens a line gets its pad as separate text, so its
    own text stays the bare interpolated value.  ``fragments`` holds only
    ``str`` and :class:`ScalarFragment` items (see
    :meth:`TemplateEngine.include_fragments`).
    """
    at_line_start = True
    line_pad = "\n" + pad
    for fragment in fragments:
        scalar = type(fragment) is ScalarFragment
        text = fragment.rendered if scalar else fragment
        if not text:
            continue
        if at_line_start and text[0] != "\n":
            if scalar:
                out.append(pad)
            else:
                text = pad + text
        padded = _LINE_WITH_TEXT_RE.sub(line_pad, text)
        out.append(ScalarFragment(padded) if scalar else padded)
        at_line_start = text[-1] == "\n"


#: A line break followed by a non-empty line: where ``_indent`` pads.
_LINE_WITH_TEXT_RE = re.compile(r"\n(?=[^\n])")


def _compile_nodes(
    nodes: Sequence[Node], defines: dict[str, list[Renderer]] | None
) -> list[Renderer]:
    """Compile AST nodes into fragment-emitting render closures.

    ``defines`` collects compiled ``define`` blocks; only top-level defines
    are registered (nested ones render to nothing, matching the interpreter
    this compiler replaced).
    """
    renderers: list[Renderer] = []
    for node in nodes:
        if isinstance(node, TextNode):
            renderers.append(_compile_text_node(node.text))
        elif isinstance(node, DefineNode):
            if defines is not None:
                defines[node.name] = _compile_nodes(node.body, None)
            renderers.append(_render_nothing)
        elif isinstance(node, VariableNode):
            pipeline = _compile_pipeline(node.tokens)
            name = node.name

            def assign(
                engine: "TemplateEngine",
                ctx: RenderContext,
                out: list,
                pipeline: ValueFn = pipeline,
                name: str = name,
            ) -> None:
                ctx.variables[name] = pipeline(engine, ctx)

            renderers.append(assign)
        elif isinstance(node, ActionNode):
            emit = _compile_structured_action(node.tokens) or _compile_include_action(
                node.tokens
            )
            if emit is not None:
                renderers.append(emit)
                continue
            pipeline = _compile_pipeline(node.tokens)

            def emit_action(
                engine: "TemplateEngine",
                ctx: RenderContext,
                out: list,
                pipeline: ValueFn = pipeline,
            ) -> None:
                text = _format_value(pipeline(engine, ctx))
                if text:
                    out.append(ScalarFragment(text))

            renderers.append(emit_action)
        elif isinstance(node, IfNode):
            branches = tuple(
                (
                    None if condition is None else _compile_pipeline(condition),
                    tuple(_compile_nodes(body, None)),
                )
                for condition, body in node.branches
            )

            def render_if(
                engine: "TemplateEngine", ctx: RenderContext, out: list, branches=branches
            ) -> None:
                for condition, body in branches:
                    if condition is None or _is_truthy(condition(engine, ctx)):
                        for fn in body:
                            fn(engine, ctx, out)
                        return

            renderers.append(render_if)
        elif isinstance(node, WithNode):
            pipeline = _compile_pipeline(node.tokens)
            body = tuple(_compile_nodes(node.body, None))
            else_body = tuple(_compile_nodes(node.else_body, None))

            def render_with(
                engine: "TemplateEngine",
                ctx: RenderContext,
                out: list,
                pipeline: ValueFn = pipeline,
                body=body,
                else_body=else_body,
            ) -> None:
                value = pipeline(engine, ctx)
                if _is_truthy(value):
                    child = ctx.child(value)
                    for fn in body:
                        fn(engine, child, out)
                else:
                    for fn in else_body:
                        fn(engine, ctx, out)

            renderers.append(render_with)
        elif isinstance(node, RangeNode):
            renderers.append(_compile_range(node))
        else:
            raise TemplateError(f"unknown template node: {node!r}")
    return renderers


def _compile_range(node: RangeNode) -> Renderer:
    pipeline = _compile_pipeline(node.tokens)
    body = tuple(_compile_nodes(node.body, None))
    else_body = tuple(_compile_nodes(node.else_body, None))
    key_var = node.key_var
    value_var = node.value_var

    def render_range(engine: "TemplateEngine", ctx: RenderContext, out: list) -> None:
        value = pipeline(engine, ctx)
        items: list[tuple[Any, Any]]
        if isinstance(value, Mapping):
            items = list(value.items())
        elif isinstance(value, (list, tuple)):
            items = list(enumerate(value))
        elif value is None:
            items = []
        else:
            raise TemplateError(f"cannot range over {type(value).__name__}")
        if not items:
            for fn in else_body:
                fn(engine, ctx, out)
            return
        for key, item in items:
            child = ctx.child(item)
            if key_var:
                child.variables[key_var] = key
            if value_var:
                child.variables[value_var] = item
            for fn in body:
                fn(engine, child, out)

    return render_range


# --------------------------------------------------------------------------
# Compile cache
# --------------------------------------------------------------------------

#: Compiled templates keyed by (template name, full source) -- content-keyed,
#: so identical template files shared across charts compile exactly once.
_COMPILE_CACHE: dict[tuple[str, str], CompiledTemplate] = {}
_COMPILE_CACHE_MAXSIZE = 4096
_PARSE_COUNT = 0


def compile_source(source: str, template_name: str = "") -> CompiledTemplate:
    """Compile (or fetch from the cache) one template source."""
    key = (template_name, source)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        global _PARSE_COUNT
        _PARSE_COUNT += 1
        # Fault site: the actual parse.  A compile-cache hit bypasses it,
        # exactly like it bypasses the parse cost.
        faults.fault_point(faults.TEMPLATE_PARSE)
        nodes = parse_template(source, template_name)
        defines: dict[str, list[Renderer]] = {}
        renderers = _compile_nodes(nodes, defines)
        compiled = CompiledTemplate(template_name, renderers, defines)
        remember(_COMPILE_CACHE, key, compiled, _COMPILE_CACHE_MAXSIZE)
    return compiled


def template_parse_count() -> int:
    """How many template sources have been lexed/parsed/compiled so far.

    A warm render must not move this counter -- the render-cache guard tests
    assert exactly that.
    """
    return _PARSE_COUNT


def clear_template_cache() -> None:
    """Drop every compiled template (benchmarks measure cold compiles)."""
    _COMPILE_CACHE.clear()


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------


class TemplateEngine:
    """Renders compiled templates, holding named ``define`` blocks."""

    def __init__(self) -> None:
        self._defines: dict[str, list[Renderer]] = {}
        self._functions: dict[str, Callable[..., Any]] = _FUNCTIONS

    # Public API -----------------------------------------------------------
    def register_source(self, source: str, template_name: str = "") -> CompiledTemplate:
        """Compile a template, record its ``define`` blocks, return it."""
        compiled = compile_source(source, template_name)
        self._defines.update(compiled.defines)
        return compiled

    def render(self, source: str, context: Mapping[str, Any], template_name: str = "") -> str:
        """Render template ``source`` with ``context`` as the root dot."""
        compiled = self.register_source(source, template_name)
        return compiled.render(self, RenderContext(dict(context)))

    def render_fragments(
        self, source: str, context: Mapping[str, Any], template_name: str = ""
    ) -> list[Fragment]:
        """Render ``source`` into its fragment stream (the structured path)."""
        compiled = self.register_source(source, template_name)
        return compiled.render_fragments(self, RenderContext(dict(context)))

    # Defines ----------------------------------------------------------------
    def include_fragments(self, name: str, dot: Any, ctx: RenderContext) -> list[Fragment]:
        """Render a ``define`` block into its fragment stream.

        The stream holds only text and :class:`ScalarFragment` items:
        structure emitted inside the define (a ``toYaml``, a ``---`` line)
        becomes its text here, since only the including template knows
        where the define's output lands.  A statement-level ``include``
        emits this stream re-indented; :meth:`include` joins it.
        """
        body = self._defines.get(name)
        if body is None:
            raise TemplateError(f"included template {name!r} is not defined")
        child = RenderContext(ctx.root, dot, ctx.variables)
        out: list[Fragment] = []
        for fn in body:
            fn(self, child, out)
        return [
            fragment if type(fragment) is str or type(fragment) is ScalarFragment
            else fragment.text()
            for fragment in out
        ]

    def include(self, name: str, dot: Any, ctx: RenderContext) -> str:
        """Render a ``define`` block to text (``include`` is string-valued).

        The joined :meth:`include_fragments` stream: an included template's
        value participates in string pipelines (``| quote``, ``| trunc``)
        exactly as in Go templates.
        """
        return fragments_text(self.include_fragments(name, dot, ctx))


def _build_functions() -> dict[str, Callable[..., Any]]:
    def default(fallback: Any, value: Any = None) -> Any:
        return value if _is_truthy(value) else fallback

    def required(message: str, value: Any = None) -> Any:
        if not _is_truthy(value):
            raise TemplateError(str(message))
        return value

    def printf(fmt: str, *args: Any) -> str:
        converted = re.sub(r"%[#+\- 0]*\d*\.?\d*[vdsqfgt]", _printf_to_python, str(fmt))
        return converted % tuple(args)

    def _printf_to_python(match: re.Match[str]) -> str:
        spec = match.group(0)
        kind = spec[-1]
        if kind in ("v", "s", "t"):
            return spec[:-1] + "s"
        if kind == "d":
            return spec[:-1] + "d"
        if kind == "q":
            return '"%s"'
        if kind in ("f", "g"):
            return spec[:-1] + kind
        return spec

    def ternary(if_true: Any, if_false: Any, condition: Any) -> Any:
        return if_true if _is_truthy(condition) else if_false

    functions: dict[str, Callable[..., Any]] = {
        "default": default,
        "required": required,
        "quote": lambda *values: " ".join(f'"{_format_value(v)}"' for v in values),
        "squote": lambda *values: " ".join(f"'{_format_value(v)}'" for v in values),
        "upper": lambda value: str(value).upper(),
        "lower": lambda value: str(value).lower(),
        "title": lambda value: str(value).title(),
        "trim": lambda value: str(value).strip(),
        "trunc": lambda length, value: str(value)[: int(length)]
        if int(length) >= 0
        else str(value)[int(length) :],
        "trimSuffix": lambda suffix, value: str(value).removesuffix(str(suffix)),
        "trimPrefix": lambda prefix, value: str(value).removeprefix(str(prefix)),
        "replace": lambda old, new, value: str(value).replace(str(old), str(new)),
        "contains": lambda needle, haystack: str(needle) in str(haystack),
        "hasPrefix": lambda prefix, value: str(value).startswith(str(prefix)),
        "hasSuffix": lambda suffix, value: str(value).endswith(str(suffix)),
        "repeat": lambda count, value: str(value) * int(count),
        "join": lambda separator, values: str(separator).join(
            _format_value(v) for v in (values or [])
        ),
        "splitList": lambda separator, value: str(value).split(str(separator)),
        "toString": _format_value,
        "toYaml": _to_yaml,
        "fromYaml": lambda value: sorted_tree(yaml_load(str(value))),
        "toJson": lambda value: yaml_dump(value, default_flow_style=True).strip(),
        "indent": _indent,
        "nindent": lambda spaces, text: "\n" + _indent(spaces, text),
        "b64enc": lambda value: __import__("base64").b64encode(str(value).encode()).decode(),
        "b64dec": lambda value: __import__("base64").b64decode(str(value).encode()).decode(),
        "int": lambda value: int(float(value)) if value not in (None, "") else 0,
        "int64": lambda value: int(float(value)) if value not in (None, "") else 0,
        "float64": lambda value: float(value) if value not in (None, "") else 0.0,
        "add": lambda *values: sum(int(v) for v in values),
        "add1": lambda value: int(value) + 1,
        "sub": lambda a, b: int(a) - int(b),
        "mul": lambda *values: __import__("math").prod(int(v) for v in values),
        "div": lambda a, b: int(a) // int(b),
        "mod": lambda a, b: int(a) % int(b),
        "max": lambda *values: max(int(v) for v in values),
        "min": lambda *values: min(int(v) for v in values),
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "not": lambda value: not _is_truthy(value),
        "and": lambda *values: next((v for v in values if not _is_truthy(v)), values[-1]),
        "or": lambda *values: next((v for v in values if _is_truthy(v)), values[-1]),
        "empty": lambda value: not _is_truthy(value),
        "coalesce": lambda *values: next((v for v in values if _is_truthy(v)), None),
        "ternary": ternary,
        "list": lambda *values: list(values),
        "dict": lambda *pairs: in_key_order(
            {str(pairs[i]): pairs[i + 1] for i in range(0, len(pairs) - 1, 2)}
        ),
        "get": lambda mapping, key: (mapping or {}).get(key),
        "hasKey": lambda mapping, key: key in (mapping or {}),
        "keys": lambda mapping: sorted((mapping or {}).keys()),
        "values": lambda mapping: list((mapping or {}).values()),
        "len": lambda value: len(value) if value is not None else 0,
        "first": lambda value: value[0] if value else None,
        "last": lambda value: value[-1] if value else None,
        "printf": printf,
        "print": lambda *values: "".join(_format_value(v) for v in values),
        "kindIs": lambda kind, value: _kind_of(value) == kind,
        "typeOf": lambda value: _kind_of(value),
        "lookup": lambda *args: {},
        "randAlphaNum": lambda length: "x" * int(length),
        "uuidv4": lambda: "00000000-0000-4000-8000-000000000000",
        "now": lambda: "1970-01-01T00:00:00Z",
        "semverCompare": lambda constraint, version: True,
    }
    return functions


#: The shared function dispatch table: built once, resolved at compile time.
_FUNCTIONS: dict[str, Callable[..., Any]] = _build_functions()


def _kind_of(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float64"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Mapping):
        return "map"
    if isinstance(value, (list, tuple)):
        return "slice"
    if value is None:
        return "invalid"
    return type(value).__name__
