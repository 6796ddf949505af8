"""Tests for the shared storage cost model."""

from __future__ import annotations

import pytest

from repro.backend.cluster import ClusterConfig
from repro.backend.datastore import StorageAccounting
from repro.util.units import GB
from repro.whatif.costs import StorageCostModel


class TestStorageCostModel:
    def test_flat_estimate_matches_historical_default(self):
        accounting = StorageAccounting(bytes_stored=GB)
        assert accounting.monthly_cost_estimate() == pytest.approx(0.03)

    def test_cold_bytes_billed_at_cold_rate(self):
        model = StorageCostModel(hot_dollars_per_gb_month=0.03,
                                 cold_dollars_per_gb_month=0.004)
        accounting = StorageAccounting(bytes_stored=10 * GB, cold_bytes=4 * GB)
        expected = 6 * 0.03 + 4 * 0.004
        assert accounting.monthly_cost_estimate(model) == pytest.approx(expected)
        assert model.storage_monthly_cost(accounting) == pytest.approx(expected)

    def test_breakdown_sums_to_monthly_total(self):
        model = StorageCostModel()
        accounting = StorageAccounting(
            bytes_stored=10 * GB, cold_bytes=3 * GB,
            cold_retrieved_bytes=2 * GB,
            migrated_cold_bytes=5 * GB, migrated_hot_bytes=GB)
        breakdown = model.cost_breakdown(accounting)
        assert set(breakdown) == {"storage_hot", "storage_cold",
                                  "retrieval", "migration"}
        assert model.monthly_total(accounting) == pytest.approx(
            sum(breakdown.values()))
        assert breakdown["retrieval"] == pytest.approx(
            2 * model.cold_retrieval_dollars_per_gb)
        assert breakdown["migration"] == pytest.approx(
            6 * model.migration_dollars_per_gb)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            StorageCostModel(cold_dollars_per_gb_month=-0.1).validate()

    def test_cluster_config_exposes_cost_model(self):
        config = ClusterConfig()
        assert config.cost_model == StorageCostModel()
        custom = ClusterConfig(cost_model=StorageCostModel(
            hot_dollars_per_gb_month=0.1))
        custom.validate()
        assert custom.cost_model.hot_dollars_per_gb_month == 0.1
        with pytest.raises(ValueError):
            ClusterConfig(cost_model=StorageCostModel(
                migration_dollars_per_gb=-1.0)).validate()


class TestAccountingTierCounters:
    def test_merge_folds_tier_counters(self):
        a = StorageAccounting(bytes_stored=10, hot_bytes=6, cold_bytes=4,
                              hot_hits=3, cold_hits=1, cold_retrieved_bytes=7,
                              migrated_cold_bytes=9, migrated_hot_bytes=2,
                              migrations=4)
        b = StorageAccounting(bytes_stored=5, hot_bytes=5, hot_hits=2,
                              migrations=1)
        a.merge(b)
        assert a.bytes_stored == 15
        assert a.hot_bytes == 11
        assert a.cold_bytes == 4
        assert a.hot_hits == 5
        assert a.cold_hits == 1
        assert a.cold_retrieved_bytes == 7
        assert a.migrated_cold_bytes == 9
        assert a.migrated_hot_bytes == 2
        assert a.migrations == 5

    def test_hot_hit_rate(self):
        assert StorageAccounting().hot_hit_rate == 1.0
        assert StorageAccounting(hot_hits=3, cold_hits=1).hot_hit_rate == 0.75
