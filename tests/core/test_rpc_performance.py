"""Tests for the Fig. 12/13 RPC performance analyses."""

from __future__ import annotations

import pytest

from repro.core.rpc_performance import (
    FIG12_GROUPS,
    class_median_ranges,
    rpc_scatter,
    rpc_service_times,
)
from repro.trace.dataset import TraceDataset
from repro.trace.records import RpcClass, RpcName
from tests.conftest import make_rpc


@pytest.fixture
def crafted() -> TraceDataset:
    rpc = []
    for i in range(20):
        rpc.append(make_rpc(timestamp=i, rpc=RpcName.GET_NODE, service_time=0.004))
    for i in range(10):
        rpc.append(make_rpc(timestamp=i, rpc=RpcName.MAKE_FILE, service_time=0.015))
    # One slow outlier gives GET_NODE a visible tail.
    rpc.append(make_rpc(timestamp=99, rpc=RpcName.GET_NODE, service_time=0.4))
    rpc.append(make_rpc(timestamp=100, rpc=RpcName.DELETE_VOLUME, service_time=0.3))
    return TraceDataset(rpc=rpc)


class TestServiceTimes:
    def test_grouping_and_medians(self, crafted):
        times = rpc_service_times(crafted)
        assert times.count(RpcName.GET_NODE) == 21
        assert times.median(RpcName.GET_NODE) == pytest.approx(0.004)
        assert times.median(RpcName.MAKE_FILE) == pytest.approx(0.015)

    def test_tail_fraction(self, crafted):
        times = rpc_service_times(crafted)
        assert times.tail_fraction(RpcName.GET_NODE, 10.0) == pytest.approx(1 / 21)
        assert times.tail_fraction(RpcName.MAKE_FILE, 10.0) == 0.0

    def test_unknown_rpc_raises(self, crafted):
        times = rpc_service_times(crafted)
        with pytest.raises(ValueError):
            times.median(RpcName.MOVE)

    def test_fig12_groups_cover_all_rpcs(self):
        grouped = set()
        for rpcs in FIG12_GROUPS.values():
            grouped.update(rpcs)
        assert grouped == set(RpcName)

    def test_group_samples(self, crafted):
        times = rpc_service_times(crafted)
        filesystem = times.group_samples("filesystem")
        assert RpcName.MAKE_FILE in filesystem
        assert RpcName.GET_NODE not in filesystem
        with pytest.raises(KeyError):
            times.group_samples("bogus")

    def test_simulated_dataset_has_long_tails(self, simulated_dataset):
        times = rpc_service_times(simulated_dataset)
        # Check a frequent RPC: a visible fraction of samples sits far from
        # the median (the paper reports 7-22 % across RPCs).
        frequent = max(times.observed_rpcs(), key=times.count)
        assert times.tail_fraction(frequent, 10.0) > 0.01
        cdf = times.cdf(frequent)
        assert cdf.quantile(0.99) > 3 * cdf.median()


class TestScatter:
    def test_scatter_points(self, crafted):
        points = rpc_scatter(crafted)
        assert points[0].rpc is RpcName.GET_NODE          # most frequent first
        classes = {p.rpc: p.rpc_class for p in points}
        assert classes[RpcName.DELETE_VOLUME] is RpcClass.CASCADE

    def test_class_ranges(self, crafted):
        ranges = class_median_ranges(rpc_scatter(crafted))
        assert ranges[RpcClass.READ][0] < ranges[RpcClass.WRITE][0]
        assert ranges[RpcClass.CASCADE][1] >= 0.3

    def test_simulated_dataset_matches_fig13_ordering(self, simulated_dataset):
        points = rpc_scatter(simulated_dataset)
        ranges = class_median_ranges(points)
        assert RpcClass.READ in ranges and RpcClass.WRITE in ranges
        read_fastest = ranges[RpcClass.READ][0]
        write_slowest = ranges[RpcClass.WRITE][1]
        assert read_fastest < write_slowest
        if RpcClass.CASCADE in ranges:
            # Cascade RPCs are more than an order of magnitude slower than the
            # fastest reads, yet much rarer.
            assert ranges[RpcClass.CASCADE][1] > 10 * read_fastest
            cascade_count = sum(p.operation_count for p in points
                                if p.rpc_class is RpcClass.CASCADE)
            read_count = sum(p.operation_count for p in points
                             if p.rpc_class is RpcClass.READ)
            assert cascade_count < read_count
