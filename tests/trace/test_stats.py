"""Unit tests for repro.trace.stats (Table 3 summary)."""

from __future__ import annotations

import pytest

from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, NodeKind
from repro.trace.stats import summarize
from repro.util.units import DAY
from tests.conftest import make_session, make_storage


class TestSummarize:
    def test_empty_dataset_raises(self, empty_dataset):
        with pytest.raises(ValueError):
            summarize(empty_dataset)

    def test_counts(self):
        dataset = TraceDataset(
            storage=[make_storage(timestamp=0, user_id=1, node_id=1,
                                  operation=ApiOperation.UPLOAD, size_bytes=100,
                                  server="a"),
                     make_storage(timestamp=DAY, user_id=2, node_id=2,
                                  operation=ApiOperation.DOWNLOAD, size_bytes=50,
                                  server="b"),
                     make_storage(timestamp=DAY, user_id=2, node_id=3,
                                  operation=ApiOperation.MAKE,
                                  node_kind=NodeKind.DIRECTORY, server="b")],
            sessions=[make_session(timestamp=10, user_id=3, session_id=77,
                                   server="c")])
        summary = summarize(dataset)
        assert summary.duration_days == pytest.approx(1.0)
        assert summary.servers_traced == 3
        assert summary.unique_users == 3
        assert summary.unique_files == 2  # the directory is not a file
        assert summary.user_sessions == 2
        assert summary.transfer_operations == 2
        assert summary.upload_bytes == 100
        assert summary.download_bytes == 50

    def test_rows_and_str(self):
        dataset = TraceDataset(storage=[make_storage()])
        summary = summarize(dataset)
        rows = summary.rows()
        assert rows[0][0] == "Trace duration"
        text = str(summary)
        assert "Unique user IDs" in text
        assert "Total upload traffic" in text

    def test_simulated_dataset_matches_table3_shape(self, simulated_dataset):
        summary = summarize(simulated_dataset)
        assert summary.unique_users > 100
        assert summary.user_sessions > summary.unique_users / 2
        assert summary.transfer_operations > 0
        assert summary.upload_bytes > 0
        assert summary.download_bytes > 0
        assert 5.5 < summary.duration_days < 6.5
