"""Benchmark / reproduction of Table 3: comparison with the state of the art."""

from __future__ import annotations

from bench_harness import run_once

from repro.experiments import PAPER_TABLE3, run_comparison

_SYMBOLS = {"found": "Y", "partial": "~", "missed": "x", "n/a": "-"}


def test_table3_tool_comparison(benchmark):
    result = run_once(benchmark, run_comparison)

    print("\n" + "=" * 78)
    print("Table 3 - misconfigurations detected by each tool (reproduced)")
    print("=" * 78)
    print(result.format_text())

    ours = result.row_for("Our solution")
    assert all(outcome == "found" for outcome in ours.outcomes.values())

    # Every third-party tool matches the paper's row exactly.
    for row in result.rows:
        if row.tool == "Our solution":
            continue
        expected = PAPER_TABLE3[row.tool]
        got = {cls.value: _SYMBOLS[outcome] for cls, outcome in row.outcomes.items()}
        assert got == expected, f"{row.tool} deviates from the paper's Table 3"


def test_table3_single_static_tool_throughput(benchmark):
    """How fast a single static baseline scans the representative chart."""
    from repro.baselines import Checkov, BaselineInput
    from repro.experiments import representative_application
    from repro.helm import render_chart
    from repro.k8s import Inventory

    rendered = render_chart(representative_application().chart)
    data = BaselineInput(inventory=Inventory(rendered.objects))
    findings = benchmark(Checkov().run, data)
    assert findings
