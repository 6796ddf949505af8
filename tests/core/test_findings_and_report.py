"""Tests for Table 1 findings, Table 3 summary wrapper and the full report."""

from __future__ import annotations

import pytest

from repro.core.findings import compute_findings
from repro.core.report import format_report, full_report
from repro.core.summary import format_table3, trace_summary


class TestFindings:
    def test_findings_cover_all_three_sections(self, simulated_dataset):
        report = compute_findings(simulated_dataset)
        sections = {finding.section for finding in report}
        assert sections == {"Storage workload", "User behavior", "Back-end performance"}
        assert len(report) >= 10

    def test_lookup_by_statement(self, simulated_dataset):
        report = compute_findings(simulated_dataset)
        dedup = report.by_statement("deduplication")
        assert dedup.paper_value == pytest.approx(0.17)
        assert dedup.measured_value > 0
        with pytest.raises(KeyError):
            report.by_statement("does not exist")

    def test_core_findings_match_paper_direction(self, simulated_dataset):
        report = compute_findings(simulated_dataset)
        small_files = report.by_statement("smaller than 1 MByte")
        assert small_files.matches_direction
        sessions_8h = report.by_statement("shorter than 8 hours")
        assert sessions_8h.matches_direction
        active_sessions = report.by_statement("perform storage operations")
        assert active_sessions.matches_direction

    def test_format_table(self, simulated_dataset):
        text = compute_findings(simulated_dataset).format_table()
        assert "paper" in text and "measured" in text
        assert "Deduplication" in text


class TestSummaryWrapper:
    def test_table3_wrapper(self, simulated_dataset):
        summary = trace_summary(simulated_dataset)
        text = format_table3(simulated_dataset)
        assert str(summary) == text


class TestFullReport:
    def test_report_contains_every_experiment(self, simulated_dataset):
        results = full_report(simulated_dataset)
        expected_keys = {"table3", "fig2a", "fig2b", "fig2c", "fig3ab", "fig3c",
                         "fig4a", "fig4b", "fig4c", "fig5", "fig6", "fig7a",
                         "fig7b", "fig7c", "fig8", "fig10", "fig11", "fig12",
                         "fig13", "fig14_api", "fig14_shards", "fig15", "fig16",
                         "table1"}
        assert expected_keys <= set(results)

    def test_text_report_renders(self, simulated_dataset):
        text = format_report(simulated_dataset)
        assert "Table 3" in text
        assert "R/W ratio" in text
        assert "Gini" in text
        assert "paper" in text

    def test_report_without_backend_records(self, dataset_without_rpc):
        results = full_report(dataset_without_rpc)
        assert "fig12" not in results     # no RPC records in this dataset
        assert "table1" in results
        text = format_report(dataset_without_rpc)
        assert "Table 1" in text
