"""Report formatting and multi-application aggregation.

Provides the text/JSON renderings of per-application reports and the
:class:`EvaluationSummary` used by the experiment harnesses to produce the
paper's Table 2 rows, Figure 3 rankings and Figure 4a distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .findings import AnalysisReport, MisconfigClass, TABLE_ORDER


def format_report_text(report: AnalysisReport) -> str:
    """Human-readable, linter-style output for one application."""
    lines = [f"Application: {report.application}"]
    if report.dataset:
        lines.append(f"Dataset:     {report.dataset}")
    lines.append(f"Findings:    {report.total} ({report.type_count()} distinct types)")
    lines.append("")
    if not report.findings:
        lines.append("No network misconfigurations detected.")
        return "\n".join(lines)
    for finding in sorted(report.findings, key=lambda f: (f.misconfig_class.value, f.resource)):
        port = f" port {finding.port}" if finding.port is not None else ""
        lines.append(
            f"[{finding.misconfig_class.value}][{finding.severity.value.upper()}] "
            f"{finding.resource}{port}"
        )
        lines.append(f"    {finding.message}")
        if finding.mitigation:
            lines.append(f"    mitigation: {finding.mitigation}")
    return "\n".join(lines)


def format_report_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def format_report_markdown(report: AnalysisReport) -> str:
    """Markdown table used in disclosure reports."""
    lines = [
        f"## {report.application}",
        "",
        "| Class | Severity | Resource | Port | Message |",
        "|---|---|---|---|---|",
    ]
    for finding in report.findings:
        port = str(finding.port) if finding.port is not None else "-"
        lines.append(
            f"| {finding.misconfig_class.value} | {finding.severity.value} "
            f"| `{finding.resource}` | {port} | {finding.message} |"
        )
    return "\n".join(lines)


@dataclass
class DatasetSummary:
    """One row of Table 2."""

    dataset: str
    total_applications: int = 0
    affected_applications: int = 0
    counts: dict[MisconfigClass, int] = field(default_factory=dict)

    @property
    def total_misconfigurations(self) -> int:
        return sum(self.counts.values())

    @property
    def average_per_application(self) -> float:
        if not self.total_applications:
            return 0.0
        return self.total_misconfigurations / self.total_applications

    def row(self) -> list:
        """``[dataset, affected/total, M1, M2, ..., M7]`` in paper column order."""
        cells: list = [self.dataset, f"{self.affected_applications} / {self.total_applications}"]
        cells.extend(self.counts.get(cls, 0) for cls in TABLE_ORDER)
        return cells


@dataclass
class EvaluationSummary:
    """Aggregation of per-application reports across datasets."""

    reports: list[AnalysisReport] = field(default_factory=list)

    def add(self, report: AnalysisReport) -> None:
        self.reports.append(report)

    # Totals ---------------------------------------------------------------
    @property
    def total_applications(self) -> int:
        return len(self.reports)

    @property
    def affected_applications(self) -> int:
        return sum(1 for report in self.reports if report.affected)

    @property
    def total_misconfigurations(self) -> int:
        return sum(report.total for report in self.reports)

    def counts_by_class(self) -> dict[MisconfigClass, int]:
        counts = {cls: 0 for cls in TABLE_ORDER}
        for report in self.reports:
            for cls, count in report.count_by_class().items():
                counts[cls] = counts.get(cls, 0) + count
        return counts

    # Dataset grouping ----------------------------------------------------------
    def datasets(self) -> list[str]:
        return sorted({report.dataset for report in self.reports if report.dataset})

    def dataset_summary(self, dataset: str) -> DatasetSummary:
        summary = DatasetSummary(dataset=dataset, counts={cls: 0 for cls in TABLE_ORDER})
        for report in self.reports:
            if report.dataset != dataset:
                continue
            summary.total_applications += 1
            if report.affected:
                summary.affected_applications += 1
            for cls, count in report.count_by_class().items():
                summary.counts[cls] = summary.counts.get(cls, 0) + count
        return summary

    def dataset_summaries(self) -> list[DatasetSummary]:
        return [self.dataset_summary(dataset) for dataset in self.datasets()]

    # Rankings and distributions (Figures 3 and 4a) -----------------------------------
    def top_by_count(self, limit: int = 10) -> list[AnalysisReport]:
        return sorted(self.reports, key=lambda r: (-r.total, r.application))[:limit]

    def top_by_types(self, limit: int = 10) -> list[AnalysisReport]:
        return sorted(self.reports, key=lambda r: (-r.type_count(), -r.total, r.application))[:limit]

    def distribution(self) -> list[int]:
        """Misconfiguration count per application, sorted descending (Figure 4a)."""
        return sorted((report.total for report in self.reports), reverse=True)

    def concentration(self, threshold: int) -> tuple[float, float]:
        """Share of applications with >= ``threshold`` findings and their share of findings."""
        if not self.reports or not self.total_misconfigurations:
            return 0.0, 0.0
        heavy = [report for report in self.reports if report.total >= threshold]
        app_share = len(heavy) / self.total_applications
        finding_share = sum(report.total for report in heavy) / self.total_misconfigurations
        return app_share, finding_share

    # Formatting ----------------------------------------------------------------------------
    def table2_text(self) -> str:
        """Render the Table 2 equivalent as aligned text."""
        header = ["Dataset", "Affected apps"] + [cls.value for cls in TABLE_ORDER]
        rows = [summary.row() for summary in self.dataset_summaries()]
        totals = ["Total", f"{self.affected_applications} / {self.total_applications}"]
        class_totals = self.counts_by_class()
        totals.extend(class_totals[cls] for cls in TABLE_ORDER)
        rows.append(totals)
        widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(header))]
        for row in rows:
            lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "total_applications": self.total_applications,
            "affected_applications": self.affected_applications,
            "total_misconfigurations": self.total_misconfigurations,
            "by_class": {cls.value: count for cls, count in self.counts_by_class().items()},
            "datasets": {
                summary.dataset: {
                    "applications": summary.total_applications,
                    "affected": summary.affected_applications,
                    "total": summary.total_misconfigurations,
                    "by_class": {cls.value: count for cls, count in summary.counts.items()},
                }
                for summary in self.dataset_summaries()
            },
        }
