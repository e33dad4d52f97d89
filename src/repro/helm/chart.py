"""Chart model: metadata, values, templates and dependencies."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import ChartError
from .values import _load_mapping, deep_merge, fingerprint_values, load_values, sorted_tree


@dataclass
class ChartMetadata:
    """The ``Chart.yaml`` contents we care about."""

    name: str
    version: str = "0.1.0"
    app_version: str = ""
    description: str = ""
    home: str = ""
    organization: str = ""

    def to_dict(self) -> dict:
        """The ``Chart.yaml`` mapping this metadata serializes to."""
        data = {
            "apiVersion": "v2",
            "name": self.name,
            "version": self.version,
        }
        if self.app_version:
            data["appVersion"] = self.app_version
        if self.description:
            data["description"] = self.description
        if self.home:
            data["home"] = self.home
        return data


@dataclass
class ChartDependency:
    """A dependency entry from ``Chart.yaml``.

    ``condition`` follows Helm semantics: a dotted path into the parent's
    values which, when falsy, disables the dependency.
    """

    name: str
    version: str = "*"
    repository: str = ""
    condition: str = ""
    alias: str = ""

    @property
    def effective_name(self) -> str:
        """The values key and subchart slot this dependency occupies."""
        return self.alias or self.name


@dataclass
class ChartTemplate:
    """One file under ``templates/``."""

    name: str
    source: str

    @property
    def is_helper(self) -> bool:
        """Helper files (``_*.tpl``) only contribute ``define`` blocks."""
        base = self.name.rsplit("/", 1)[-1]
        return base.startswith("_") or base.endswith(".tpl")


@dataclass
class Chart:
    """An in-memory Helm chart."""

    metadata: ChartMetadata
    values: dict[str, Any] = field(default_factory=dict)
    templates: list[ChartTemplate] = field(default_factory=list)
    dependencies: list[ChartDependency] = field(default_factory=list)
    subcharts: dict[str, "Chart"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Helm reads values as maps, visited in sorted key order: sorting
        # the tree where it enters makes equal values render and
        # fingerprint alike whatever order they were written in.
        self.values = sorted_tree(self.values)

    @property
    def name(self) -> str:
        """The chart name from ``Chart.yaml``."""
        return self.metadata.name

    @property
    def version(self) -> str:
        """The chart version from ``Chart.yaml``."""
        return self.metadata.version

    # Construction helpers ---------------------------------------------------
    def add_template(self, name: str, source: str) -> None:
        """Add one ``templates/`` file to the chart."""
        self.templates.append(ChartTemplate(name=name, source=source))

    def add_subchart(self, chart: "Chart", condition: str = "", alias: str = "") -> None:
        """Package ``chart`` as a dependency (with optional condition/alias)."""
        dependency = ChartDependency(
            name=chart.name, version=chart.version, condition=condition, alias=alias
        )
        self.dependencies.append(dependency)
        self.subcharts[dependency.effective_name] = chart

    def template_named(self, name: str) -> ChartTemplate | None:
        """Look up one template file by its name (``None`` when absent)."""
        for template in self.templates:
            if template.name == name:
                return template
        return None

    # Identity -----------------------------------------------------------------
    def fingerprint(self) -> str:
        """A content fingerprint over everything that affects rendering.

        Covers metadata, default values, template names and sources,
        dependency declarations and (recursively) packaged subcharts, in
        one :func:`~repro.helm.values.fingerprint_values` pass.  Two charts
        with equal content produce the same fingerprint in any process, so
        render-cache keys survive the process-pool fan-out and catalogue
        rebuilds.
        """
        meta = self.metadata
        return fingerprint_values((
            (meta.name, meta.version, meta.app_version, meta.description, meta.home,
             meta.organization),
            self.values,
            [(template.name, template.source) for template in self.templates],
            [(dependency.name, dependency.version, dependency.repository,
              dependency.condition, dependency.alias) for dependency in self.dependencies],
            [(name, self.subcharts[name].fingerprint()) for name in sorted(self.subcharts)],
        ))

    # Values handling ----------------------------------------------------------
    def effective_values(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The chart's default values with user overrides merged on top."""
        return deep_merge(self.values, overrides or {})

    def validate(self) -> None:
        """Check structural invariants: a name, unique templates, packaged deps."""
        if not self.metadata.name:
            raise ChartError("chart name is required")
        seen: set[str] = set()
        for template in self.templates:
            if template.name in seen:
                raise ChartError(f"duplicate template file name: {template.name!r}")
            seen.add(template.name)
        for dependency in self.dependencies:
            if dependency.effective_name not in self.subcharts:
                raise ChartError(
                    f"dependency {dependency.effective_name!r} of chart {self.name!r} "
                    "has no packaged subchart"
                )

    @classmethod
    def from_files(
        cls,
        name: str,
        values_yaml: str = "",
        templates: Mapping[str, str] | None = None,
        version: str = "0.1.0",
        description: str = "",
        organization: str = "",
        values: Mapping[str, Any] | None = None,
    ) -> "Chart":
        """Build a chart from raw file contents (the way charts ship on disk).

        ``values`` accepts an already-parsed values tree directly -- the
        synthetic catalogue builders construct values as dicts, and handing
        them over dict-natively skips a pointless dump/re-parse round trip
        per chart.  The chart keeps a key-sorted copy of the tree's dicts
        and lists (leaves are shared); it is mutually exclusive with
        ``values_yaml``.
        """
        if values is not None and values_yaml:
            raise ChartError("pass either values_yaml or values, not both")
        chart = cls(
            metadata=ChartMetadata(
                name=name, version=version, description=description, organization=organization
            ),
            values=values if values is not None
            else load_values(values_yaml) if values_yaml else {},
        )
        for template_name, source in (templates or {}).items():
            chart.add_template(template_name, source)
        return chart

    @classmethod
    def from_directory(cls, path: Path | str) -> "Chart":
        """Load a chart from an on-disk directory (watch mode's entry point).

        Reads ``Chart.yaml`` (name, version, appVersion, description --
        the directory name is the fallback name), ``values.yaml`` and
        every file under ``templates/`` (sorted, so the content
        fingerprint is stable across filesystems).  Dependencies are not
        resolved from disk: watch mode treats each directory as a
        standalone chart.  The same reader and parser serve watch mode's
        rescan (:class:`ChartSource`).
        """
        return ChartSource.read(path).parse()


def _entries(path: Path | str) -> dict[str, os.DirEntry] | None:
    """The entries of directory ``path`` by name; ``None`` when it is absent."""
    try:
        with os.scandir(path) as listing:
            return {entry.name: entry for entry in listing}
    except (FileNotFoundError, NotADirectoryError):
        return None


def _read_file(entry: os.DirEntry | None) -> bytes | None:
    """The bytes of a regular file; ``None`` when it is absent or vanished."""
    if entry is None or not entry.is_file():
        return None
    try:
        with open(entry.path, "rb") as handle:
            return handle.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None


def _decode(data: bytes) -> str:
    """UTF-8 text with universal newlines, exactly as ``Path.read_text`` reads."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


@dataclass(frozen=True)
class ChartSource:
    """The files of one on-disk chart directory, read once as raw bytes.

    The one loader behind :meth:`Chart.from_directory` and watch mode's
    rescan: :meth:`read` takes the bytes once and :meth:`parse` builds the
    chart from exactly those bytes, so the rescan's stat record (which
    digests the same bytes) and the chart cannot disagree.  ``None`` marks
    an absent ``Chart.yaml``, ``values.yaml`` or ``templates/`` -- missing,
    of another file type, or vanished between listing and reading.
    ``templates`` holds ``(file name, bytes)`` pairs sorted by name.
    """

    path: Path
    chart_yaml: bytes | None = None
    values_yaml: bytes | None = None
    templates: tuple[tuple[str, bytes], ...] | None = None

    @classmethod
    def read(cls, path: Path | str) -> "ChartSource":
        """Read a chart directory's files; an absent directory reads as empty.

        Errors other than absence (a permission error, say) propagate.
        """
        root = Path(path)
        entries = _entries(root) or {}
        templates_dir = entries.get("templates")
        listing = (
            _entries(templates_dir.path)
            if templates_dir is not None and templates_dir.is_dir()
            else None
        )
        templates = None
        if listing is not None:
            files = []
            for name in sorted(listing):
                data = _read_file(listing[name])
                if data is not None:
                    files.append((name, data))
            templates = tuple(files)
        return cls(
            path=root,
            chart_yaml=_read_file(entries.get("Chart.yaml")),
            values_yaml=_read_file(entries.get("values.yaml")),
            templates=templates,
        )

    @property
    def is_chart(self) -> bool:
        """Whether the directory holds a ``Chart.yaml``, ``values.yaml`` or ``templates/``."""
        return (
            self.chart_yaml is not None
            or self.values_yaml is not None
            or self.templates is not None
        )

    def parse(self) -> Chart:
        """The chart these bytes hold.

        Text decodes as UTF-8 with universal newlines (CRLF and CR become
        LF).  Raises ``UnicodeDecodeError`` on bytes that are not UTF-8
        and a :class:`ValuesError` naming the file when ``Chart.yaml`` or
        ``values.yaml`` is not a YAML mapping.
        """
        meta = (
            _load_mapping(_decode(self.chart_yaml), "Chart.yaml")
            if self.chart_yaml is not None
            else {}
        )
        chart = Chart(
            metadata=ChartMetadata(
                name=str(meta.get("name") or self.path.name),
                version=str(meta.get("version") or "0.1.0"),
                app_version=str(meta.get("appVersion") or ""),
                description=str(meta.get("description") or ""),
            ),
            values=load_values(_decode(self.values_yaml))
            if self.values_yaml is not None
            else {},
        )
        for name, data in self.templates or ():
            chart.add_template(name, _decode(data))
        return chart
