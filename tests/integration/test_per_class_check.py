"""Every catalogue chart, class by class, against its injection plan.

The catalogue builder plants each chart's misconfigurations from an
:class:`~repro.datasets.InjectionPlan`; one full-catalogue sweep checks that
every chart's findings match its plan per class (M4* included, after the
cluster-wide pass), not only the sampled charts and dataset totals the other
suites check.  On a mismatch the failure prints a per-class table: expected
and found totals, and how many charts found more or fewer than planned.
"""

from __future__ import annotations

from repro.core import MisconfigClass
from repro.experiments import run_full_evaluation

CLASSES = [cls.value for cls in MisconfigClass]


def per_class_table(charts: list[tuple[dict[str, int], dict[str, int]]]) -> dict[str, list[int]]:
    """Per class: [expected total, found total, charts over, charts under].

    ``charts`` holds one (expected, found) pair of class counts per chart.
    """
    table = {cls: [0, 0, 0, 0] for cls in CLASSES}
    for expected, found in charts:
        for cls, row in table.items():
            want, got = expected.get(cls, 0), found.get(cls, 0)
            row[0] += want
            row[1] += got
            row[2] += got > want
            row[3] += got < want
    return table


def format_table(table: dict[str, list[int]]) -> str:
    """The table as aligned text, one class per line."""
    lines = [f"{'class':<6}{'expected':>10}{'found':>8}{'over':>6}{'under':>7}"]
    lines += [
        f"{cls:<6}{expected:>10}{found:>8}{over:>6}{under:>7}"
        for cls, (expected, found, over, under) in table.items()
    ]
    return "\n".join(lines)


def test_every_chart_matches_its_injection_plan():
    result = run_full_evaluation()
    assert not result.failed
    assert len(result.analyzed) == 290
    charts = [
        (
            entry.application.plan.expected_counts(),
            {cls.value: count for cls, count in entry.report.count_by_class().items()},
        )
        for entry in result.analyzed
    ]
    mismatched = [
        f"{entry.application.dataset}/{entry.application.name}"
        for entry, (expected, found) in zip(result.analyzed, charts)
        if any(expected.get(cls, 0) != found.get(cls, 0) for cls in CLASSES)
    ]
    assert not mismatched, (
        f"{len(mismatched)} of {len(charts)} charts differ from their plans "
        f"(first: {', '.join(mismatched[:5])})\n{format_table(per_class_table(charts))}"
    )


def test_the_table_names_charts_over_and_under():
    charts = [({"M1": 2, "M6": 1}, {"M1": 3, "M6": 1}), ({"M1": 1}, {"M7": 1})]
    table = per_class_table(charts)
    assert table["M1"] == [3, 3, 1, 1]
    assert table["M6"] == [1, 1, 0, 0]
    assert table["M7"] == [0, 1, 1, 0]
    text = format_table(table)
    assert text.splitlines()[0].split() == ["class", "expected", "found", "over", "under"]
    assert "M1" in text and len(text.splitlines()) == len(CLASSES) + 1
