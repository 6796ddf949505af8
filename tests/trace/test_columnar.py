"""Seeded equivalence tests: columnar fast paths vs record-view slow paths.

The vectorized trace engine keeps the record lists as the compatibility
surface while computing every slicing/aggregation primitive over cached
NumPy columns.  These tests build a real dataset (generator + back-end
replay, fixed seed) and assert that the columnar implementations return
exactly what a naive per-record implementation returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.dataset import (
    NODE_KIND_CODE,
    OPERATION_CODE,
    RPC_CODE,
    SESSION_EVENT_CODE,
    TraceDataset,
)
from repro.trace.records import ApiOperation, NodeKind


@pytest.fixture(scope="module")
def dataset(simulated_dataset_module) -> TraceDataset:
    return simulated_dataset_module


@pytest.fixture(scope="module")
def simulated_dataset_module():
    from repro.backend.cluster import ClusterConfig, U1Cluster
    from repro.workload.config import WorkloadConfig
    from repro.workload.generator import SyntheticTraceGenerator

    config = WorkloadConfig.scaled(users=120, days=2, seed=99)
    cluster = U1Cluster(ClusterConfig(seed=99))
    return cluster.replay_plan(SyntheticTraceGenerator(config).plan())


class TestColumns:
    def test_columns_match_record_attributes(self, dataset):
        records = list(dataset.storage)
        assert records, "fixture produced an empty trace"
        ts = dataset.storage_column("timestamp")
        users = dataset.storage_column("user_id")
        sizes = dataset.storage_column("size_bytes")
        ops = dataset.storage_column("operation")
        attack = dataset.storage_column("caused_by_attack")
        assert len(ts) == len(records)
        for i in (0, 1, len(records) // 2, len(records) - 1):
            assert ts[i] == records[i].timestamp
            assert users[i] == records[i].user_id
            assert sizes[i] == records[i].size_bytes
            assert ops[i] == OPERATION_CODE[records[i].operation]
            assert bool(attack[i]) == records[i].caused_by_attack

    def test_rpc_and_session_columns(self, dataset):
        rpc_records = list(dataset.rpc)
        codes = dataset.rpc_column("rpc")
        times = dataset.rpc_column("service_time")
        for i in (0, len(rpc_records) - 1):
            assert codes[i] == RPC_CODE[rpc_records[i].rpc]
            assert times[i] == rpc_records[i].service_time
        session_records = list(dataset.sessions)
        events = dataset.session_column("event")
        for i in (0, len(session_records) - 1):
            assert events[i] == SESSION_EVENT_CODE[session_records[i].event]

    def test_factorised_codes_roundtrip(self, dataset):
        codes, categories = dataset.storage_codes("server")
        records = list(dataset.storage)
        assert len(codes) == len(records)
        for i in (0, len(records) // 3, len(records) - 1):
            assert categories[codes[i]] == records[i].server


class TestFilters:
    def test_filter_time_matches_slow_path(self, dataset):
        start, end = dataset.time_span()
        mid = start + (end - start) / 3.0
        fast = dataset.filter_time(start, mid)
        slow_storage = [r for r in dataset.storage if start <= r.timestamp < mid]
        slow_rpc = [r for r in dataset.rpc if start <= r.timestamp < mid]
        slow_sessions = [r for r in dataset.sessions if start <= r.timestamp < mid]
        assert list(fast.storage) == slow_storage
        assert list(fast.rpc) == slow_rpc
        assert list(fast.sessions) == slow_sessions
        # The view decodes record copies equal to the parent's.
        if slow_storage:
            assert fast.storage[0] == slow_storage[0]

    def test_filter_users_matches_slow_path(self, dataset):
        wanted = sorted(dataset.user_ids())[:7]
        fast = dataset.filter_users(wanted)
        wanted_set = set(wanted)
        assert list(fast.storage) == [r for r in dataset.storage
                                      if r.user_id in wanted_set]
        assert list(fast.sessions) == [r for r in dataset.sessions
                                       if r.user_id in wanted_set]

    def test_without_attack_traffic_matches_slow_path(self, dataset):
        fast = dataset.without_attack_traffic()
        assert list(fast.storage) == [r for r in dataset.storage
                                      if not r.caused_by_attack]
        assert list(fast.rpc) == [r for r in dataset.rpc
                                  if not r.caused_by_attack]
        # Repeated calls return the cached filtered dataset.
        assert dataset.without_attack_traffic() is fast

    def test_nested_filters(self, dataset):
        start, end = dataset.time_span()
        legit = dataset.without_attack_traffic()
        window = legit.filter_time(start, start + (end - start) / 2)
        expected = [r for r in dataset.storage
                    if not r.caused_by_attack
                    and start <= r.timestamp < start + (end - start) / 2]
        assert list(window.storage) == expected


class TestAggregations:
    def test_byte_totals_match_slow_path(self, dataset):
        assert dataset.upload_bytes() == sum(
            r.size_bytes for r in dataset.storage
            if r.operation is ApiOperation.UPLOAD)
        assert dataset.download_bytes() == sum(
            r.size_bytes for r in dataset.storage
            if r.operation is ApiOperation.DOWNLOAD)

    def test_time_span_matches_slow_path(self, dataset):
        timestamps = ([r.timestamp for r in dataset.storage]
                      + [r.timestamp for r in dataset.rpc]
                      + [r.timestamp for r in dataset.sessions])
        assert dataset.time_span() == (min(timestamps), max(timestamps))

    def test_user_and_session_ids_match_slow_path(self, dataset):
        users = {r.user_id for r in dataset.storage}
        users.update(r.user_id for r in dataset.rpc)
        users.update(r.user_id for r in dataset.sessions)
        assert dataset.user_ids() == users
        sessions = {r.session_id for r in dataset.storage}
        sessions.update(r.session_id for r in dataset.sessions)
        assert dataset.session_ids() == sessions


class TestIngestionModes:
    def test_row_and_record_ingestion_are_equivalent(self):
        from tests.conftest import make_storage

        records = [make_storage(timestamp=float(i), user_id=i % 3,
                                node_id=i + 1, size_bytes=10 * i)
                   for i in range(20)]
        by_record = TraceDataset(storage=records)
        # A stream's row appender (the trace sink's session-row route).
        by_row = TraceDataset()
        for record in records:
            by_row._storage.append(_row_of(record))
        assert by_record == by_row
        assert np.array_equal(by_record.storage_column("size_bytes"),
                              by_row.storage_column("size_bytes"))

    def test_reads_interleaved_with_appends(self):
        from tests.conftest import make_storage

        dataset = TraceDataset()
        dataset._storage.append(_row_of(make_storage(timestamp=1.0)))
        assert len(dataset.storage) == 1
        first = dataset.storage[0]
        dataset._storage.append(_row_of(make_storage(timestamp=2.0)))
        assert len(dataset.storage) == 2
        assert dataset.storage[0] == first
        ts = dataset.storage_column("timestamp")
        assert (ts[1] - ts[0]) == 1.0 and ts.size == 2

    def test_sort_is_noop_on_sorted_and_stable_otherwise(self):
        from tests.conftest import make_storage

        dataset = TraceDataset(storage=[
            make_storage(timestamp=ts, user_id=user_id)
            for user_id, ts in enumerate((3.0, 1.0, 2.0, 1.0))])
        before = list(dataset.storage)
        dataset.sort()
        after = list(dataset.storage)
        assert [r.timestamp for r in after] == sorted(r.timestamp for r in before)
        # Stable: equal timestamps keep insertion order.
        assert after[0] == before[1]
        assert after[1] == before[3]

    def test_node_kind_codes_cover_enum(self):
        assert set(NODE_KIND_CODE.values()) == {0, 1}
        assert NODE_KIND_CODE[NodeKind.FILE] != NODE_KIND_CODE[NodeKind.DIRECTORY]


def _row_of(record) -> tuple:
    from repro.trace.dataset import _STORAGE_SPEC

    return tuple(getattr(record, name) for name in _STORAGE_SPEC.fields)
