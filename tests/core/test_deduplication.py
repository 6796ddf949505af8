"""Tests for the Fig. 4a deduplication analysis."""

from __future__ import annotations

import pytest

from repro.core.deduplication import deduplication_analysis
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    # Hash A uploaded three times (1000 bytes each), hash B once (500 bytes).
    for i, ts in enumerate((0, 10, 20)):
        storage.append(make_storage(timestamp=ts, node_id=10 + i,
                                    operation=ApiOperation.UPLOAD,
                                    size_bytes=1000, content_hash="A"))
    storage.append(make_storage(timestamp=30, node_id=20,
                                operation=ApiOperation.UPLOAD,
                                size_bytes=500, content_hash="B"))
    # Uploads without hash are ignored.
    storage.append(make_storage(timestamp=40, node_id=30,
                                operation=ApiOperation.UPLOAD,
                                size_bytes=999, content_hash=""))
    return TraceDataset(storage=storage)


class TestDeduplication:
    def test_ratios(self, crafted):
        analysis = deduplication_analysis(crafted)
        assert analysis.total_files == 4
        assert analysis.unique_contents == 2
        # unique bytes = 1000 + 500; total = 3000 + 500.
        assert analysis.byte_dedup_ratio == pytest.approx(1 - 1500 / 3500)
        assert analysis.file_dedup_ratio == pytest.approx(0.5)
        assert analysis.storage_saved_bytes() == 2000

    def test_copies_distribution(self, crafted):
        analysis = deduplication_analysis(crafted)
        assert list(analysis.copies_per_hash) == [1.0, 3.0]
        assert analysis.max_copies == 3
        assert analysis.fraction_without_duplicates == pytest.approx(0.5)

    def test_empty_dataset(self):
        analysis = deduplication_analysis(TraceDataset())
        assert analysis.byte_dedup_ratio == 0.0
        assert analysis.file_dedup_ratio == 0.0

    def test_simulated_dataset_shape(self, simulated_dataset):
        analysis = deduplication_analysis(simulated_dataset)
        # The paper reports dr = 0.171; the synthetic workload targets that
        # region but small runs fluctuate, so check the qualitative shape.
        assert analysis.file_dedup_ratio > 0.05
        assert analysis.byte_dedup_ratio > 0.01
        # Most contents have no duplicate; a few are heavily duplicated.
        assert analysis.fraction_without_duplicates > 0.6
        assert analysis.max_copies >= 5
