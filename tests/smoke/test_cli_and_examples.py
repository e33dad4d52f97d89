"""Smoke harness: every CLI subcommand and every example script runs.

The CLI subcommands run in-process against a tiny catalogue sample
(``--sample``), asserting exit code and non-empty, recognizable report
output.  The ``examples/*.py`` scripts run as real subprocesses -- the way a
reader would invoke them -- with ``full_evaluation.py`` pointed at a tiny
catalogue via its ``--sample`` flag.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from repro.cli import main as cli_main
from repro.datasets import InjectionPlan, build_application
from repro.helm import render_chart

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples"
SRC = REPO_ROOT / "src"


@pytest.fixture
def manifests_file(tmp_path) -> Path:
    """A rendered multi-document manifest file for ``insidejob analyze``."""
    app = build_application(
        "smoke-app", "Smoke Org", InjectionPlan(m3=1, m5d=1, m6=True), archetype="web"
    )
    rendered = render_chart(app.chart)
    path = tmp_path / "manifests.yaml"
    path.write_text(yaml.safe_dump_all(rendered.documents), encoding="utf-8")
    return path


class TestCLI:
    def run_cli(self, capsys, *argv: str) -> tuple[int, str]:
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert out.strip(), f"{argv} produced no output"
        return code, out

    def test_analyze(self, capsys, manifests_file):
        code, out = self.run_cli(capsys, "analyze", str(manifests_file))
        assert code == 0
        assert "M6" in out  # no NetworkPolicy rendered -> static M6 finding

    def test_analyze_strict_exits_nonzero_on_findings(self, capsys, manifests_file):
        code, out = self.run_cli(capsys, "analyze", str(manifests_file), "--strict")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            *[[command, "--sample", "-1"] for command in
              ("catalog", "table2", "figure3", "figure4a", "figure4b", "sweep")],
            ["sweep", "--workers", "-1"],
            ["watch", ".", "--rounds", "-1"],
            ["watch", ".", "--rounds", "2", "--interval", "-1"],
            ["watch", ".", "--interval", "nan"],
        ],
    )
    def test_negative_numbers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        option = next(arg for arg in argv[::-1] if arg.startswith("--"))
        assert f"argument {option}: must be a finite non-negative number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "name, content, reason",
        [
            ("missing.yaml", None, "No such file or directory"),
            ("directory", "dir", "Is a directory"),
            ("latin1.yaml", b"kind: Pod\nname: caf\xe9\n", "can't decode byte 0xe9"),
            ("malformed.yaml", b"kind: [Pod\n", "invalid YAML"),
            ("list.yaml", b"- kind: Pod\n", "manifest must be a mapping, got list"),
        ],
    )
    def test_analyze_bad_input_is_one_line_exit_2(self, capsys, tmp_path, name, content, reason):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        code = cli_main(["analyze", str(path), "--strict"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"insidejob analyze: {path}: ")
        assert reason in lines[0]

    @pytest.mark.parametrize(
        "kind, reason", [("missing", "No such file or directory"), ("file", "Not a directory")]
    )
    def test_watch_on_a_missing_root_or_a_file_is_one_line_exit_2(
        self, capsys, tmp_path, kind, reason
    ):
        path = tmp_path / "charts"
        if kind == "file":
            path.write_text("not a chart directory\n", encoding="utf-8")
        code = cli_main(["watch", str(path), "--rounds", "2", "--interval", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"insidejob watch: {path}: {reason}"]

    @pytest.mark.parametrize("command", ["catalog", "table2"])
    def test_table2_commands(self, capsys, command):
        code, out = self.run_cli(capsys, command, "--sample", "6")
        assert code == 0
        assert "M1" in out and "Total" in out

    def test_figure3(self, capsys):
        code, out = self.run_cli(capsys, "figure3", "--sample", "6")
        assert code == 0
        assert "Figure 3a" in out and "Figure 3b" in out

    def test_figure4a(self, capsys):
        code, out = self.run_cli(capsys, "figure4a", "--sample", "6")
        assert code == 0

    def test_figure4b(self, capsys):
        code, out = self.run_cli(capsys, "figure4b", "--sample", "12")
        assert code == 0
        assert "Dataset" in out

    @pytest.mark.slow
    def test_table3(self, capsys):
        code, out = self.run_cli(capsys, "table3")
        assert code == 0
        assert "M1" in out

    @pytest.mark.parametrize("scenario", ["concourse", "thanos"])
    def test_attacks(self, capsys, scenario):
        code, out = self.run_cli(capsys, "attack", scenario)
        assert code == 0
        assert "succeeded" in out


@pytest.mark.slow
class TestExampleScripts:
    """Each example must exit 0 and print a non-empty, recognizable report."""

    CASES = {
        "quickstart.py": ([], "Catalogue of misconfiguration classes"),
        "audit_and_fix.py": ([], "after mitigation"),
        "compare_tools.py": ([], "Differences from the paper's Table 3"),
        "lateral_movement.py": ([], "after mitigation"),
        "full_evaluation.py": (["--sample", "8"], "total wall-clock time"),
    }

    @pytest.mark.parametrize("script", sorted(CASES))
    def test_example_runs(self, script):
        args, marker = self.CASES[script]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES / script), *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            timeout=300,
        )
        assert completed.returncode == 0, (
            f"{script} failed:\n{completed.stdout}\n{completed.stderr}"
        )
        assert completed.stdout.strip(), f"{script} produced no output"
        assert marker in completed.stdout
