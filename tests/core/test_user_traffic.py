"""Tests for the Fig. 7b/7c per-user traffic analyses and user classes."""

from __future__ import annotations

import pytest

from repro.core.user_traffic import classify_users, per_user_traffic, traffic_inequality
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from repro.util.units import GB, KB, MB
from tests.conftest import make_session, make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    sessions = []
    # User 1: heavy (uploads and downloads GBs).
    storage.append(make_storage(user_id=1, node_id=1, size_bytes=2 * GB,
                                operation=ApiOperation.UPLOAD))
    storage.append(make_storage(user_id=1, node_id=1, size_bytes=1 * GB,
                                operation=ApiOperation.DOWNLOAD, timestamp=10))
    # User 2: upload-only.
    storage.append(make_storage(user_id=2, node_id=2, size_bytes=50 * MB,
                                operation=ApiOperation.UPLOAD, timestamp=20))
    # User 3: download-only.
    storage.append(make_storage(user_id=3, node_id=1, size_bytes=30 * MB,
                                operation=ApiOperation.DOWNLOAD, timestamp=30))
    # User 4: occasional (2 KB upload).
    storage.append(make_storage(user_id=4, node_id=4, size_bytes=2 * KB,
                                operation=ApiOperation.UPLOAD, timestamp=40))
    # User 5: online but never transfers.
    sessions.append(make_session(user_id=5, session_id=50, timestamp=50))
    return TraceDataset(storage=storage, sessions=sessions)


class TestPerUserTraffic:
    def test_totals(self, crafted):
        traffic = per_user_traffic(crafted)
        assert traffic.total_traffic(1) == 3 * GB
        assert traffic.users_who_uploaded() == 3
        assert traffic.users_who_downloaded() == 2
        assert traffic.all_users == 5
        assert traffic.upload_share_of_users() == pytest.approx(3 / 5)
        assert traffic.download_share_of_users() == pytest.approx(2 / 5)

    def test_cdf(self, crafted):
        traffic = per_user_traffic(crafted)
        cdf = traffic.traffic_cdf("total")
        assert cdf.n == 4
        assert cdf(10 * KB) == pytest.approx(0.25)

    def test_kind_validation(self, crafted):
        with pytest.raises(ValueError):
            per_user_traffic(crafted).traffic_values("sideways")


class TestInequality:
    def test_concentration_on_heavy_user(self, crafted):
        inequality = traffic_inequality(crafted)
        assert inequality.active_users == 4
        assert inequality.gini > 0.5
        assert inequality.top_5_percent_share >= inequality.top_1_percent_share
        assert inequality.lorenz_traffic[-1] == pytest.approx(1.0)

    def test_simulated_dataset_matches_fig7c_shape(self, simulated_dataset):
        inequality = traffic_inequality(simulated_dataset)
        # The paper reports Gini ~0.9 and a 65 % top-1 % share over 1.29 M
        # users; at laptop scale the Gini stays high and the top users still
        # dominate.
        assert inequality.gini > 0.6
        assert inequality.top_5_percent_share > 0.3

    def test_empty_traffic_raises(self):
        with pytest.raises(ValueError):
            traffic_inequality(TraceDataset())


class TestUserClasses:
    def test_crafted_classification(self, crafted):
        breakdown = classify_users(crafted)
        assert breakdown.counts["heavy"] == 1
        assert breakdown.counts["upload_only"] == 1
        assert breakdown.counts["download_only"] == 1
        assert breakdown.counts["occasional"] == 2  # tiny uploader + silent user
        assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)

    def test_simulated_dataset_is_occasional_dominated(self, simulated_dataset):
        breakdown = classify_users(simulated_dataset)
        # Section 6.1: 85.8 % occasional, few heavy users — U1 is much less
        # active than the campus-biased Dropbox population.
        assert breakdown.occasional > 0.6
        assert breakdown.heavy < 0.2
