"""End-to-end integration tests: workload -> back-end -> logfiles -> analyses."""

from __future__ import annotations

import pytest

from repro import quick_dataset
from repro.core.report import full_report
from repro.trace.anonymize import Anonymizer
from repro.trace.logfile import read_trace_directory, write_trace_directory
from repro.trace.stats import summarize
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from repro.backend.cluster import ClusterConfig, U1Cluster


class TestQuickDataset:
    def test_quick_dataset_with_backend(self):
        dataset = quick_dataset(users=60, days=1, seed=2)
        assert dataset.storage and dataset.rpc and dataset.sessions


class TestLogfileRoundTrip:
    def test_simulated_trace_survives_disk_round_trip(self, tmp_path, simulated_dataset):
        subset = simulated_dataset.filter_time(*simulated_dataset.time_span())
        paths = write_trace_directory(tmp_path / "trace", subset)
        assert paths, "at least one logfile should be written"
        loaded = read_trace_directory(tmp_path / "trace")
        assert len(loaded) == len(subset)
        assert summarize(loaded).upload_bytes == summarize(subset).upload_bytes
        assert summarize(loaded).unique_users == summarize(subset).unique_users

    def test_anonymised_trace_yields_same_aggregate_analyses(self, simulated_dataset):
        anonymous = Anonymizer().anonymize(simulated_dataset)
        original = full_report(simulated_dataset)
        masked = full_report(anonymous)
        assert masked["fig4a"].byte_dedup_ratio == pytest.approx(
            original["fig4a"].byte_dedup_ratio)
        assert masked["fig7c"].gini == pytest.approx(original["fig7c"].gini)
        assert masked["fig16"].active_share == pytest.approx(
            original["fig16"].active_share)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        config = WorkloadConfig.scaled(users=80, days=1.5, seed=9)
        a = U1Cluster(ClusterConfig(seed=9)).replay_plan(
            SyntheticTraceGenerator(config).plan())
        b = U1Cluster(ClusterConfig(seed=9)).replay_plan(
            SyntheticTraceGenerator(config).plan())
        assert len(a.storage) == len(b.storage)
        assert len(a.rpc) == len(b.rpc)
        assert a.upload_bytes() == b.upload_bytes()

    def test_different_seed_different_trace(self):
        a = quick_dataset(users=80, days=1.5, seed=1)
        b = quick_dataset(users=80, days=1.5, seed=2)
        assert a.upload_bytes() != b.upload_bytes()


class TestFullPipelineShape:
    def test_report_runs_on_simulated_month_slice(self, simulated_dataset):
        results = full_report(simulated_dataset)
        table1 = results["table1"]
        # Most recomputed findings should be in the same direction as the
        # paper (factor-of-a-few band); allow a minority to drift at this
        # scale but not the bulk.
        matching = sum(1 for f in table1 if f.matches_direction)
        assert matching >= len(table1) * 0.5
