"""Tests for the Fig. 14 load-balancing analysis."""

from __future__ import annotations

import pytest

from repro.core.load_balancing import api_server_load, shard_load
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from repro.util.units import HOUR, MINUTE
from tests.conftest import make_rpc, make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    rpc = []
    # Hour 0: server a gets 3 requests, server b gets 1.
    for i in range(3):
        storage.append(make_storage(timestamp=i * 60, server="a", node_id=i + 1,
                                    operation=ApiOperation.UPLOAD))
    storage.append(make_storage(timestamp=100, server="b", node_id=10,
                                operation=ApiOperation.UPLOAD))
    # Hour 1: both get 2.
    for i in range(2):
        storage.append(make_storage(timestamp=HOUR + i * 60, server="a",
                                    node_id=20 + i, operation=ApiOperation.UPLOAD))
        storage.append(make_storage(timestamp=HOUR + i * 60 + 10, server="b",
                                    node_id=30 + i, operation=ApiOperation.UPLOAD))
    # RPCs over two shards, unbalanced within the first minute.
    for i in range(4):
        rpc.append(make_rpc(timestamp=i, shard_id=0))
    rpc.append(make_rpc(timestamp=5, shard_id=1))
    rpc.append(make_rpc(timestamp=MINUTE + 1, shard_id=1))
    return TraceDataset(storage=storage, rpc=rpc)


class TestApiServerLoad:
    def test_counts_matrix(self, crafted):
        series = api_server_load(crafted, bin_width=HOUR)
        assert series.entities == ("a", "b")
        assert series.counts[0][:2].tolist() == [3.0, 2.0]
        assert series.counts[1][:2].tolist() == [1.0, 2.0]

    def test_imbalance_metrics(self, crafted):
        series = api_server_load(crafted, bin_width=HOUR)
        assert series.short_window_imbalance() > 0
        # Totals are 5 vs 3 requests -> mean 4, std 1 -> CV = 0.25.
        assert series.long_term_imbalance() == pytest.approx(0.25, rel=0.01)

    def test_per_process_grouping(self, crafted):
        series = api_server_load(crafted, bin_width=HOUR, by_machine=False)
        assert all("/" in entity for entity in series.entities)


class TestShardLoad:
    def test_counts_per_minute(self, crafted):
        series = shard_load(crafted, bin_width=MINUTE)
        assert series.entities == ("shard-0", "shard-1")
        assert series.counts[0][0] == 4.0
        assert series.counts[1][0] == 1.0
        assert series.counts[1][1:].sum() == 1.0

    def test_explicit_shard_count_includes_idle_shards(self, crafted):
        series = shard_load(crafted, n_shards=4)
        assert series.n_entities == 4

    def test_requires_rpc_records(self):
        with pytest.raises(ValueError):
            shard_load(TraceDataset(storage=[make_storage()]))

    def test_simulated_dataset_matches_fig14_shape(self, simulated_dataset):
        api_series = api_server_load(simulated_dataset, bin_width=HOUR)
        shard_series = shard_load(simulated_dataset, bin_width=MINUTE, n_shards=10)
        # Short-window imbalance is pronounced; whole-trace imbalance is much
        # smaller (the paper reports 4.9 % across shards for the full month —
        # a laptop-scale population keeps more residual skew, but the ordering
        # must hold).
        assert shard_series.short_window_imbalance() > shard_series.long_term_imbalance()
        assert api_series.short_window_imbalance() > 0
        assert api_series.n_entities == 6
        assert shard_series.n_entities == 10
