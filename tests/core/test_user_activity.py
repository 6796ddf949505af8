"""Tests for the Fig. 6 / Fig. 7a user-activity analyses."""

from __future__ import annotations

import pytest

from repro.core.user_activity import online_active_users, operation_counts
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, SessionEvent
from repro.util.units import HOUR
from tests.conftest import make_session, make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    sessions = []
    # Hour 0: users 1 and 2 online, only user 1 active.
    sessions.append(make_session(timestamp=10, user_id=1, session_id=1,
                                 event=SessionEvent.CONNECT))
    sessions.append(make_session(timestamp=20, user_id=2, session_id=2,
                                 event=SessionEvent.CONNECT))
    storage.append(make_storage(timestamp=30, user_id=1, node_id=1,
                                operation=ApiOperation.UPLOAD))
    storage.append(make_storage(timestamp=40, user_id=2, node_id=0,
                                operation=ApiOperation.GET_DELTA))
    # Hour 1: only user 2, active this time.
    storage.append(make_storage(timestamp=HOUR + 10, user_id=2, node_id=2,
                                operation=ApiOperation.UNLINK))
    sessions.append(make_session(timestamp=HOUR + 20, user_id=2, session_id=2,
                                 event=SessionEvent.DISCONNECT,
                                 session_length=HOUR, storage_operations=1))
    return TraceDataset(storage=storage, sessions=sessions)


class TestOnlineActive:
    def test_counts_per_hour(self, crafted):
        series = online_active_users(crafted)
        assert list(series.online[:2]) == [2.0, 1.0]
        assert list(series.active[:2]) == [1.0, 1.0]
        assert series.online[2:].sum() == 0.0

    def test_active_share(self, crafted):
        series = online_active_users(crafted)
        low, high = series.active_share_range()
        assert low == pytest.approx(0.5)
        assert high == pytest.approx(1.0)

    def test_online_always_at_least_active(self, simulated_dataset):
        series = online_active_users(simulated_dataset)
        assert (series.online >= series.active).all()
        low, high = series.active_share_range()
        # Fig. 6: active users are a clear minority of online users.
        assert high < 0.8
        assert series.online.max() > 10


class TestOperationCounts:
    def test_counts_and_shares(self, crafted):
        report = operation_counts(crafted)
        assert report.counts[ApiOperation.UPLOAD] == 1
        assert report.counts[ApiOperation.UNLINK] == 1
        assert report.counts[ApiOperation.OPEN_SESSION] == 2
        assert report.counts[ApiOperation.CLOSE_SESSION] == 1
        assert report.total() == 6
        assert report.share(ApiOperation.UPLOAD) == pytest.approx(1 / 6)

    def test_sessions_can_be_excluded(self, crafted):
        report = operation_counts(crafted, include_sessions=False)
        assert ApiOperation.OPEN_SESSION not in report.counts

    def test_most_common_ordering(self, simulated_dataset):
        report = operation_counts(simulated_dataset)
        ordered = report.most_common()
        counts = [count for _, count in ordered]
        assert counts == sorted(counts, reverse=True)

    def test_data_management_dominates_simulated_workload(self, simulated_dataset):
        report = operation_counts(simulated_dataset, include_sessions=False)
        # Fig. 7a: the most frequent operations are data-management ones and
        # session start-up operations (ListVolumes/ListShares) are not dominant.
        data = sum(count for op, count in report.counts.items()
                   if op.is_data_management)
        assert data > 0.5 * report.total()
        transfers = (report.counts.get(ApiOperation.UPLOAD, 0)
                     + report.counts.get(ApiOperation.DOWNLOAD, 0))
        listings = (report.counts.get(ApiOperation.LIST_VOLUMES, 0)
                    + report.counts.get(ApiOperation.LIST_SHARES, 0))
        assert transfers > listings
