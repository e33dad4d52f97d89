"""Tests for the experiment harnesses (run on small datasets for speed)."""

import pytest

from repro.datasets import build_dataset, expected_dataset_counts
from repro.experiments import (
    PAPER_TABLE3,
    compute_stats,
    figure3a,
    figure3b,
    figure4a,
    format_figure3,
    format_figure4a,
    format_stats,
    paper_row,
    run_comparison,
    run_full_evaluation,
    run_netpol_impact,
)


@pytest.fixture(scope="module")
def small_evaluation():
    """Evaluation over the two smallest datasets (CNCF + EEA, 29 charts)."""
    applications = build_dataset("CNCF") + build_dataset("EEA")
    return run_full_evaluation(applications=applications)


class TestParallelEvaluation:
    def test_parallel_path_matches_serial_in_order_and_findings(self, small_evaluation):
        applications = small_evaluation.applications()
        parallel = run_full_evaluation(applications=applications, workers=4)
        assert [entry.key for entry in parallel.analyzed] == [
            entry.key for entry in small_evaluation.analyzed
        ]
        for serial_entry, parallel_entry in zip(small_evaluation.analyzed, parallel.analyzed):
            assert sorted(f.dedupe_key() for f in parallel_entry.report.findings) == sorted(
                f.dedupe_key() for f in serial_entry.report.findings
            )


class TestEvaluationPipeline:
    def test_every_application_is_analyzed(self, small_evaluation):
        assert len(small_evaluation.analyzed) == 29

    def test_dataset_counts_match_table2_rows(self, small_evaluation):
        for dataset in ("CNCF", "EEA"):
            summary = small_evaluation.summary.dataset_summary(dataset)
            got = {cls.value: count for cls, count in summary.counts.items() if count}
            expected = {k: v for k, v in expected_dataset_counts(dataset).items() if v}
            assert got == expected

    def test_affected_counts(self, small_evaluation):
        assert small_evaluation.summary.dataset_summary("CNCF").affected_applications == 7
        assert small_evaluation.summary.dataset_summary("EEA").affected_applications == 8

    def test_report_lookup(self, small_evaluation):
        assert small_evaluation.report_for("CNCF", "cert-manager") is not None
        assert small_evaluation.report_for("CNCF", "missing") is None

    def test_use_case_grouping(self, small_evaluation):
        assert len(small_evaluation.by_use_case("internal")) == 19
        assert len(small_evaluation.by_use_case("production")) == 10

    def test_use_case_keeps_catalogue_order_when_datasets_interleave(self):
        # A seed-shuffled catalogue or a watch directory interleaves
        # datasets; Bitnami and Banzai Cloud share the "sharing" use case.
        bitnami, banzai = build_dataset("Bitnami"), build_dataset("Banzai Cloud")
        applications = [bitnami[0], banzai[0], bitnami[1]]
        result = run_full_evaluation(applications=applications)
        assert [entry.application.name for entry in result.by_use_case("sharing")] == [
            app.name for app in applications
        ]
        assert result.by_dataset("Bitnami") == [result.analyzed[0], result.analyzed[2]]


class TestStats:
    def test_headline_stats(self, small_evaluation):
        stats = compute_stats(small_evaluation)
        assert stats.total_applications == 29
        assert stats.affected_applications == 15
        assert stats.use_case("internal").applications == 19
        assert stats.use_case("production").average > stats.use_case("internal").average

    def test_format_stats_mentions_totals(self, small_evaluation):
        text = format_stats(compute_stats(small_evaluation))
        assert "applications analyzed" in text
        assert "internal" in text


class TestFigures:
    def test_figure3a_ranking_is_sorted(self, small_evaluation):
        ranked = figure3a(small_evaluation.summary, limit=5)
        totals = [entry.total for entry in ranked]
        assert totals == sorted(totals, reverse=True)
        assert all("(" in entry.label for entry in ranked)

    def test_figure3b_ranks_by_types(self, small_evaluation):
        ranked = figure3b(small_evaluation.summary, limit=5)
        types = [entry.types for entry in ranked]
        assert types == sorted(types, reverse=True)

    def test_format_figure3_renders_bars(self, small_evaluation):
        text = format_figure3(figure3a(small_evaluation.summary, limit=3))
        assert "#" in text

    def test_figure4a_distribution(self, small_evaluation):
        distribution = figure4a(small_evaluation.summary)
        assert len(distribution.per_application) == 29
        assert distribution.total == small_evaluation.summary.total_misconfigurations
        assert 0 <= distribution.share_apps_ge_10 <= 1
        text = format_figure4a(distribution)
        assert "misconfigurations" in text


class TestNetpolImpact:
    def test_rows_cover_datasets_with_policies(self):
        applications = build_dataset("EEA")
        impact = run_netpol_impact(applications=applications)
        rows = {row.dataset: row for row in impact.rows()}
        assert rows["EEA"].policies_defined == 19
        assert rows["EEA"].policies_enabled_by_default == 19
        # Loose policies leave some applications affected, strict ones do not.
        assert 0 < rows["EEA"].affected <= 8

    def test_banzai_has_no_policies(self):
        applications = build_dataset("Banzai Cloud")[:5]
        impact = run_netpol_impact(applications=applications)
        assert all(row.policies_defined == 0 for row in impact.rows())

    def test_format_text_includes_header(self):
        applications = build_dataset("EEA")[:3]
        impact = run_netpol_impact(applications=applications)
        assert "Reachable pods" in impact.format_text()


class TestTable3:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_comparison()

    def test_twelve_rows(self, comparison):
        assert len(comparison.rows) == 12

    def test_our_solution_detects_everything(self, comparison):
        ours = comparison.row_for("Our solution")
        assert all(outcome == "found" for outcome in ours.outcomes.values())

    def test_third_party_matrix_matches_paper(self, comparison):
        symbols = {"found": "Y", "partial": "~", "missed": "x", "n/a": "-"}
        for row in comparison.rows:
            if row.tool == "Our solution":
                continue
            expected = paper_row(row.tool)
            got = {cls.value: symbols[outcome] for cls, outcome in row.outcomes.items()}
            assert got == expected, f"{row.tool} deviates from the paper"

    def test_no_third_party_tool_detects_label_collisions_fully(self, comparison):
        for row in comparison.rows:
            if row.tool == "Our solution":
                continue
            assert row.outcomes[next(c for c in row.outcomes if c.value == "M4A")] != "found"

    def test_format_text_contains_legend(self, comparison):
        assert "not applicable" in comparison.format_text()

    def test_paper_table_is_complete(self):
        for tool, row in PAPER_TABLE3.items():
            assert len(row) == 13, tool
