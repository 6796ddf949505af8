"""Tests for the Fig. 15/16 session and authentication analyses."""

from __future__ import annotations

import pytest

from repro.core.sessions import auth_activity, session_analysis
from repro.trace.dataset import TraceDataset
from repro.trace.records import SessionEvent
from repro.util.units import HOUR
from tests.conftest import make_session


@pytest.fixture
def crafted() -> TraceDataset:
    sessions = []
    lengths = [0.5, 30.0, 600.0, 10 * HOUR]
    ops = [0, 0, 5, 95]
    for i, (length, op_count) in enumerate(zip(lengths, ops)):
        session_id = i + 1
        sessions.append(make_session(timestamp=i * HOUR, session_id=session_id,
                                     event=SessionEvent.AUTH_REQUEST))
        sessions.append(make_session(timestamp=i * HOUR, session_id=session_id,
                                     event=SessionEvent.AUTH_OK))
        sessions.append(make_session(timestamp=i * HOUR, session_id=session_id,
                                     event=SessionEvent.CONNECT))
        sessions.append(make_session(timestamp=i * HOUR + length,
                                     session_id=session_id,
                                     event=SessionEvent.DISCONNECT,
                                     session_length=length,
                                     storage_operations=op_count))
    # One failed authentication.
    sessions.append(make_session(timestamp=5 * HOUR, session_id=99,
                                 event=SessionEvent.AUTH_REQUEST))
    sessions.append(make_session(timestamp=5 * HOUR, session_id=99,
                                 event=SessionEvent.AUTH_FAIL))
    return TraceDataset(sessions=sessions)


class TestAuthActivity:
    def test_counts_and_failure_ratio(self, crafted):
        activity = auth_activity(crafted)
        assert activity.auth_total == 5
        assert activity.auth_failures == 1
        assert activity.auth_failure_ratio == pytest.approx(0.2)
        assert activity.session_requests.sum() == 8  # 4 connects + 4 disconnects

    def test_simulated_dataset_matches_fig15_shape(self, simulated_dataset):
        # Fig. 15 characterises the daily rhythm of *regular* users, so the
        # shape assertion excludes DDoS episodes: attack bursts land at
        # arbitrary hours, and whether they fall in the day or night window
        # is pure seed luck (the aggregate ratio hovers around 1.05-1.1
        # either side of any fixed threshold).  Legitimate traffic shows the
        # diurnal pattern unambiguously.
        activity = auth_activity(simulated_dataset, include_attacks=False)
        # Daily pattern: daytime authentication activity clearly exceeds
        # night-time (the paper reports 50-60 % higher during the day).
        assert activity.day_night_ratio() > 1.3
        # ~2.76 % of authentication requests fail.
        assert 0.005 < activity.auth_failure_ratio < 0.08


class TestSessionAnalysis:
    def test_counts(self, crafted):
        analysis = session_analysis(crafted)
        assert analysis.n_sessions == 4
        assert analysis.active_sessions == 2
        assert analysis.active_share == pytest.approx(0.5)

    def test_length_distribution(self, crafted):
        analysis = session_analysis(crafted)
        assert analysis.share_shorter_than(1.0) == pytest.approx(0.25)
        assert analysis.share_shorter_than(8 * HOUR) == pytest.approx(0.75)
        assert analysis.median_length() == pytest.approx((30.0 + 600.0) / 2)
        assert analysis.median_length(active_only=True) > analysis.median_length()

    def test_operations_distribution(self, crafted):
        analysis = session_analysis(crafted)
        active = analysis.storage_operations[analysis.storage_operations > 0]
        assert active.size == 2
        assert analysis.top_sessions_share(0.5) == pytest.approx(95 / 100)

    def test_empty_session_analysis(self):
        analysis = session_analysis(TraceDataset())
        assert analysis.n_sessions == 0
        assert analysis.active_share == 0.0
        with pytest.raises(ValueError):
            analysis.length_cdf()

    def test_simulated_dataset_matches_fig16_shape(self, simulated_dataset):
        analysis = session_analysis(simulated_dataset)
        # 97 % of sessions below 8 h, ~32 % below 1 s, few active sessions,
        # and the busiest active sessions hold most of the operations.
        assert analysis.share_shorter_than(8 * HOUR) > 0.85
        assert 0.15 < analysis.share_shorter_than(1.0) < 0.5
        assert 0.01 < analysis.active_share < 0.35
        assert analysis.top_sessions_share(0.2) > 0.5
        assert analysis.median_length(active_only=True) > analysis.median_length()
