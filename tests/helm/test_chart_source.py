"""One loader for on-disk charts: ``ChartSource`` behind ``Chart.from_directory``.

``Chart.from_directory`` and watch mode's rescan share one byte reader and
parser (:class:`repro.helm.ChartSource`).  These tests pin it against a
per-file ``Path.read_text`` and PyYAML loader kept here as the reference,
on the inputs where a byte reader could drift: CRLF and CR line endings, a
missing ``Chart.yaml`` (the directory-name fallback), a missing
``values.yaml``, a missing ``templates/``, non-file entries inside
``templates/``, and hand-written chart files (comments, spaced keys, a
byte-order mark), which stay on the subset parser.  Malformed inputs must
fail the same way.  They also pin the read-then-parse rule: a chart is
parsed from the bytes that were read, never from a second read.
"""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from repro.helm import Chart, ChartMetadata, ChartSource, ValuesError
from repro.k8s.yamlio import yaml_load


def reference_mapping(text: str) -> dict:
    """PyYAML's reading of one chart file: a mapping, ``{}`` when empty."""
    try:
        loaded = yaml_load(text)
    except yaml.YAMLError as exc:
        raise ValuesError(str(exc)) from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ValuesError("not a mapping")
    return loaded


def reference_from_directory(path: Path) -> Chart:
    """The reference loader: ``is_file``/``is_dir`` checks, ``read_text``
    and PyYAML."""
    root = Path(path)
    meta: dict = {}
    chart_yaml = root / "Chart.yaml"
    if chart_yaml.is_file():
        meta = reference_mapping(chart_yaml.read_text(encoding="utf-8"))
    values_file = root / "values.yaml"
    chart = Chart(
        metadata=ChartMetadata(
            name=str(meta.get("name") or root.name),
            version=str(meta.get("version") or "0.1.0"),
            app_version=str(meta.get("appVersion") or ""),
            description=str(meta.get("description") or ""),
        ),
        values=reference_mapping(values_file.read_text(encoding="utf-8"))
        if values_file.is_file()
        else {},
    )
    templates_dir = root / "templates"
    if templates_dir.is_dir():
        for file in sorted(templates_dir.iterdir()):
            if file.is_file():
                chart.add_template(file.name, file.read_text(encoding="utf-8"))
    return chart


CHART_YAML = (
    "apiVersion: v2\nname: sample\nversion: 1.2.3\nappVersion: '4.5'\n"
    "description: |\n  two\n  lines\n"
)
VALUES_YAML = "image: example/web\nnote: |\n  first\n  second\nservice:\n  port: 80\n"
TEMPLATE = (
    "apiVersion: v1\nkind: Service\nmetadata:\n  name: {{ .Release.Name }}-web\n"
    "spec:\n  ports:\n    - port: {{ .Values.service.port }}\n"
)
HELPER = '{{- define "sample.name" -}}\n{{ .Chart.Name }}\n{{- end -}}\n'
#: Hand-written chart files: a byte-order mark, comments, spaced keys.
COMMENTED_CHART_YAML = (
    "\ufeff# A hand-written chart.\napiVersion: v2\nname: sample  # the chart\n"
    "version : 1.2.3\n"
)
COMMENTED_VALUES_YAML = (
    "\ufeff# Default values.\n\nimage: example/web # pinned\nservice:\n"
    "  # the port the Service exposes\n  port : 80\n  tags:\n    - a#1 # first\n"
    "    - # empty\n# trailing note\n"
)


def write_chart(root: Path, newline: str = "\n", chart=True, values=True, templates=True) -> Path:
    root.mkdir(parents=True)

    def write(path: Path, text: str) -> None:
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))

    if chart:
        write(root / "Chart.yaml", CHART_YAML)
    if values:
        write(root / "values.yaml", VALUES_YAML)
    if templates:
        (root / "templates").mkdir()
        write(root / "templates" / "service.yaml", TEMPLATE)
        write(root / "templates" / "_helpers.tpl", HELPER)
    return root


def with_non_file_entries(root: Path) -> Path:
    write_chart(root)
    templates = root / "templates"
    (templates / "nested").mkdir()
    (templates / "nested" / "inner.yaml").write_text(TEMPLATE, encoding="utf-8")
    (templates / "linked-dir").symlink_to(templates / "nested")
    (templates / "dangling.yaml").symlink_to(root / "missing.yaml")
    (templates / "linked.yaml").symlink_to(templates / "service.yaml")
    return root


def with_empty_files(root: Path) -> Path:
    write_chart(root)
    (root / "Chart.yaml").write_bytes(b"")
    (root / "values.yaml").write_bytes(b"")
    return root


def with_commented_files(root: Path) -> Path:
    write_chart(root)
    (root / "Chart.yaml").write_text(COMMENTED_CHART_YAML, encoding="utf-8")
    (root / "values.yaml").write_text(COMMENTED_VALUES_YAML, encoding="utf-8")
    return root


def with_directories_named_like_files(root: Path) -> Path:
    write_chart(root, chart=False, values=False)
    (root / "Chart.yaml").mkdir()
    (root / "values.yaml").mkdir()
    return root


LAYOUTS = {
    "lf": lambda root: write_chart(root),
    "crlf": lambda root: write_chart(root, newline="\r\n"),
    "cr": lambda root: write_chart(root, newline="\r"),
    "mixed-newlines": lambda root: write_chart(root, newline="\r\r\n"),
    "no-chart-yaml": lambda root: write_chart(root, chart=False),
    "no-values-yaml": lambda root: write_chart(root, values=False),
    "no-templates": lambda root: write_chart(root, templates=False),
    "non-file-template-entries": with_non_file_entries,
    "commented-files": with_commented_files,
    "directories-named-like-files": with_directories_named_like_files,
    "empty-files": with_empty_files,
    "absent-directory": lambda root: None,
}


class TestFromDirectoryMatchesReference:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_chart_as_reference(self, tmp_path, layout):
        root = tmp_path / "my-chart"
        LAYOUTS[layout](root)
        expected = reference_from_directory(root)
        loaded = Chart.from_directory(root)
        assert loaded == expected
        assert loaded.fingerprint() == expected.fingerprint()

    def test_commented_files_stay_on_the_subset_parser(self, tmp_path, monkeypatch):
        from repro.helm import values as values_module

        def no_fallback(text):
            raise AssertionError(f"left the subset parser: {text!r}")

        monkeypatch.setattr(values_module, "yaml_load", no_fallback)
        chart = Chart.from_directory(with_commented_files(tmp_path / "my-chart"))
        assert (chart.name, chart.version) == ("sample", "1.2.3")
        assert chart.values == {
            "image": "example/web", "service": {"port": 80, "tags": ["a#1", None]},
        }

    def test_newlines_decode_like_read_text(self, tmp_path):
        crlf = Chart.from_directory(write_chart(tmp_path / "crlf", newline="\r\n"))
        lf = Chart.from_directory(write_chart(tmp_path / "lf"))
        assert crlf.templates == lf.templates
        assert crlf.values == lf.values
        assert "\r" not in crlf.templates[0].source

    @pytest.mark.parametrize(
        "relative,data,error",
        [
            ("values.yaml", b"key: [unclosed\n", ValuesError),
            ("values.yaml", b"- a\n- b\n", ValuesError),
            ("Chart.yaml", b"- not\n- a mapping\n", ValuesError),
            ("values.yaml", b"key: \xff\xfe\n", UnicodeDecodeError),
            ("templates/service.yaml", b"\xc3\x28", UnicodeDecodeError),
        ],
        ids=["invalid-yaml", "list-values", "list-chart-yaml", "non-utf8-values",
             "non-utf8-template"],
    )
    def test_malformed_inputs_fail_like_reference(self, tmp_path, relative, data, error):
        root = write_chart(tmp_path / "broken")
        (root / relative).write_bytes(data)
        with pytest.raises(error):
            reference_from_directory(root)
        source = ChartSource.read(root)  # reading never parses
        with pytest.raises(error):
            source.parse()


class TestRead:
    def test_parses_the_bytes_it_read(self, tmp_path):
        root = write_chart(tmp_path / "chart")
        source = ChartSource.read(root)
        (root / "values.yaml").write_text("image: other/image\n", encoding="utf-8")
        assert source.parse().values["image"] == "example/web"
        assert Chart.from_directory(root).values == {"image": "other/image"}

    def test_is_chart_only_with_a_chart_file(self, tmp_path):
        (tmp_path / "plain").mkdir()
        (tmp_path / "plain" / "README.md").write_text("no chart here\n", encoding="utf-8")
        assert not ChartSource.read(tmp_path / "plain").is_chart
        assert not ChartSource.read(tmp_path / "absent").is_chart
        assert ChartSource.read(write_chart(tmp_path / "values-only", chart=False,
                                            templates=False)).is_chart
