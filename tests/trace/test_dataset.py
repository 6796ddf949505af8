"""Unit tests for repro.trace.dataset."""

from __future__ import annotations

import pytest

from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, SessionEvent, TRACE_EPOCH
from tests.conftest import make_rpc, make_session, make_storage


@pytest.fixture
def dataset() -> TraceDataset:
    ds = TraceDataset()
    ds.add_storage(make_storage(timestamp=10, user_id=1, operation=ApiOperation.UPLOAD,
                                node_id=1, size_bytes=100))
    ds.add_storage(make_storage(timestamp=20, user_id=1, operation=ApiOperation.DOWNLOAD,
                                node_id=1, size_bytes=100))
    ds.add_storage(make_storage(timestamp=30, user_id=2, operation=ApiOperation.UPLOAD,
                                node_id=2, size_bytes=500, session_id=2))
    ds.add_storage(make_storage(timestamp=5, user_id=3, operation=ApiOperation.UNLINK,
                                node_id=3, size_bytes=0, session_id=3,
                                caused_by_attack=True))
    ds.add_rpc(make_rpc(timestamp=11, user_id=1))
    ds.add_session(make_session(timestamp=0, user_id=1, event=SessionEvent.CONNECT))
    ds.add_session(make_session(timestamp=100, user_id=1, event=SessionEvent.DISCONNECT,
                                session_length=100.0, storage_operations=2))
    return ds


class TestBasics:
    def test_len_and_empty(self, dataset, empty_dataset):
        assert len(dataset) == 7
        assert not dataset.is_empty
        assert empty_dataset.is_empty

    def test_time_span(self, dataset):
        start, end = dataset.time_span()
        assert start == TRACE_EPOCH
        assert end == TRACE_EPOCH + 100
        assert dataset.duration == 100

    def test_time_span_empty_raises(self, empty_dataset):
        with pytest.raises(ValueError):
            empty_dataset.time_span()

    def test_sort_orders_by_timestamp(self, dataset):
        dataset.sort()
        timestamps = [r.timestamp for r in dataset.storage]
        assert timestamps == sorted(timestamps)

    def test_extend_merges_records(self, dataset):
        other = TraceDataset()
        other.add_storage(make_storage(timestamp=99, user_id=9))
        dataset.extend(other)
        assert any(r.user_id == 9 for r in dataset.storage)


class TestFiltering:
    def test_filter_time(self, dataset):
        subset = dataset.filter_time(TRACE_EPOCH + 9, TRACE_EPOCH + 21)
        assert len(subset.storage) == 2
        assert len(subset.rpc) == 1
        assert len(subset.sessions) == 0

    def test_filter_users(self, dataset):
        subset = dataset.filter_users([1])
        assert {r.user_id for r in subset.storage} == {1}
        assert {r.user_id for r in subset.sessions} == {1}

    def test_without_attack_traffic(self, dataset):
        legit = dataset.without_attack_traffic()
        assert all(not r.caused_by_attack for r in legit.storage)
        assert len(legit.storage) == 3

    def test_filter_storage_predicate(self, dataset):
        uploads = dataset.filter_storage(lambda r: r.operation is ApiOperation.UPLOAD)
        assert len(uploads) == 2


class TestAggregation:
    def test_user_and_session_ids(self, dataset):
        assert dataset.user_ids() == {1, 2, 3}
        assert dataset.session_ids() == {1, 2, 3}

    def test_distinct_ids_are_fresh_sets(self, dataset):
        ids = dataset.user_ids()
        ids.add(99)
        ids.discard(1)
        assert dataset.user_ids() == {1, 2, 3}
        assert dataset.user_ids() is not dataset.user_ids()

    def test_distinct_ids_follow_appends(self, dataset):
        assert dataset.user_ids() == {1, 2, 3}
        dataset.add_rpc(make_rpc(timestamp=40, user_id=7))
        assert dataset.user_ids() == {1, 2, 3, 7}
        dataset.add_session(make_session(timestamp=120, user_id=8,
                                         session_id=9))
        assert dataset.user_ids() == {1, 2, 3, 7, 8}
        assert dataset.session_ids() == {1, 2, 3, 9}
        other = TraceDataset()
        other.add_storage(make_storage(timestamp=130, user_id=11,
                                       session_id=12))
        dataset.extend(other)
        assert dataset.user_ids() == {1, 2, 3, 7, 8, 11}
        assert dataset.session_ids() == {1, 2, 3, 9, 12}

    def test_distinct_ids_recomputed_after_sort(self, dataset):
        dataset.user_ids()
        cached = dataset._distinct_cache["user_id"][1]
        dataset.user_ids()
        assert dataset._distinct_cache["user_id"][1] is cached
        dataset.sort()  # the storage stream is out of order: this reorders it
        assert dataset.user_ids() == {1, 2, 3}
        assert dataset._distinct_cache["user_id"][1] is not cached

    def test_distinct_ids_of_empty_dataset(self, empty_dataset):
        assert empty_dataset.user_ids() == set()
        assert empty_dataset.session_ids() == set()

    def test_storage_by_user_sorted(self, dataset):
        grouped = dataset.storage_by_user()
        assert set(grouped) == {1, 2, 3}
        user1 = grouped[1]
        assert [r.timestamp for r in user1] == sorted(r.timestamp for r in user1)

    def test_storage_by_node_skips_zero(self, dataset):
        dataset.add_storage(make_storage(timestamp=50, node_id=0,
                                         operation=ApiOperation.LIST_VOLUMES))
        grouped = dataset.storage_by_node()
        assert 0 not in grouped
        assert set(grouped) == {1, 2, 3}

    def test_storage_by_session(self, dataset):
        grouped = dataset.storage_by_session()
        assert len(grouped[1]) == 2

    def test_iter_operations(self, dataset):
        ops = list(dataset.iter_operations(ApiOperation.UPLOAD, ApiOperation.UNLINK))
        assert len(ops) == 3

    def test_traffic_totals(self, dataset):
        assert dataset.upload_bytes() == 600
        assert dataset.download_bytes() == 100

    def test_completed_sessions(self, dataset):
        completed = dataset.completed_sessions()
        assert len(completed) == 1
        assert completed[0].session_length == 100.0
