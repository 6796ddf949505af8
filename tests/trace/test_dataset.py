"""Unit tests for repro.trace.dataset."""

from __future__ import annotations

import pytest

from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, SessionEvent, TRACE_EPOCH
from tests.conftest import append_records, make_rpc, make_session, make_storage


@pytest.fixture
def dataset() -> TraceDataset:
    storage = []
    rpc = []
    sessions = []
    storage.append(make_storage(timestamp=10, user_id=1, operation=ApiOperation.UPLOAD,
                                node_id=1, size_bytes=100))
    storage.append(make_storage(timestamp=20, user_id=1, operation=ApiOperation.DOWNLOAD,
                                node_id=1, size_bytes=100))
    storage.append(make_storage(timestamp=30, user_id=2, operation=ApiOperation.UPLOAD,
                                node_id=2, size_bytes=500, session_id=2))
    storage.append(make_storage(timestamp=5, user_id=3, operation=ApiOperation.UNLINK,
                                node_id=3, size_bytes=0, session_id=3,
                                caused_by_attack=True))
    rpc.append(make_rpc(timestamp=11, user_id=1))
    sessions.append(make_session(timestamp=0, user_id=1, event=SessionEvent.CONNECT))
    sessions.append(make_session(timestamp=100, user_id=1, event=SessionEvent.DISCONNECT,
                                 session_length=100.0, storage_operations=2))
    return TraceDataset(storage=storage, rpc=rpc, sessions=sessions)


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

    def test_len_and_bool_of_record_views_do_not_decode(self, dataset):
        assert len(dataset.storage) == 4 and dataset.rpc
        assert not dataset.filter_users([42]).sessions
        assert dataset._storage._records is None
        assert dataset._rpc._records is None

    def test_records_are_copies(self, dataset):
        dataset.storage[0].user_id = 99
        assert dataset.storage_column("user_id")[0] == 1
        assert 99 not in dataset.user_ids()

    def test_sort_orders_by_timestamp(self, dataset):
        dataset.sort()
        timestamps = [r.timestamp for r in dataset.storage]
        assert timestamps == sorted(timestamps)

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
        append_records(dataset, rpc=[make_rpc(timestamp=40, user_id=7)])
        assert dataset.user_ids() == {1, 2, 3, 7}
        append_records(dataset, sessions=[make_session(timestamp=120, user_id=8,
                                                       session_id=9)])
        assert dataset.user_ids() == {1, 2, 3, 7, 8}
        assert dataset.session_ids() == {1, 2, 3, 9}
        append_records(dataset, storage=[make_storage(timestamp=130, user_id=11,
                                                      session_id=12)])
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

    def test_traffic_totals(self, dataset):
        assert dataset.upload_bytes() == 600
        assert dataset.download_bytes() == 100


class TestContentDigest:
    """The digest is a function of the records, not of how they were built."""

    @staticmethod
    def _copy(dataset: TraceDataset) -> TraceDataset:
        return TraceDataset(storage=list(dataset.storage),
                            rpc=list(dataset.rpc),
                            sessions=list(dataset.sessions))

    def test_view_digest_ignores_unused_categories(self):
        dataset = TraceDataset(storage=[
            make_storage(timestamp=t, content_hash=h)
            for t, h in ((1, "a"), (2, "b"), (3, "c"), (4, "b"))])
        view = dataset.filter_time(TRACE_EPOCH + 2, TRACE_EPOCH + 5)
        assert view == self._copy(view)
        assert view.content_digest() == self._copy(view).content_digest()

    def test_merge_digest_ignores_block_category_order(self):
        late = TraceDataset(storage=[make_storage(timestamp=2, server="x")])
        early = TraceDataset(storage=[make_storage(timestamp=1, server="y")])
        merged = TraceDataset.from_sorted_blocks([late, early])
        assert merged.storage_codes("server")[1] == ["x", "y"]
        assert merged == self._copy(merged)
        assert merged.content_digest() == self._copy(merged).content_digest()

    def test_digest_still_separates_different_records(self):
        one = TraceDataset(storage=[make_storage(content_hash="a")])
        other = TraceDataset(storage=[make_storage(content_hash="b")])
        assert one.content_digest() != other.content_digest()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replayed_digest_equals_record_copy_digest(self, n_jobs):
        from repro.backend.cluster import ClusterConfig, U1Cluster
        from repro.workload.config import WorkloadConfig
        from repro.workload.generator import SyntheticTraceGenerator

        config = WorkloadConfig.scaled(users=60, days=1, seed=2027)
        cluster = U1Cluster(ClusterConfig(seed=2027))
        dataset = cluster.replay_plan(SyntheticTraceGenerator(config).plan(),
                                      n_jobs=n_jobs)
        assert dataset == self._copy(dataset)
        assert dataset.content_digest() == self._copy(dataset).content_digest()
