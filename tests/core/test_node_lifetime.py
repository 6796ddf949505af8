"""Tests for the Fig. 3c node-lifetime analysis."""

from __future__ import annotations

import pytest

from repro.core.node_lifetime import node_lifetimes
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, NodeKind
from repro.util.units import DAY, HOUR
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    # File 1: created and deleted after 2 hours.
    storage.append(make_storage(timestamp=0, node_id=1, operation=ApiOperation.UPLOAD))
    storage.append(make_storage(timestamp=2 * HOUR, node_id=1,
                                operation=ApiOperation.UNLINK))
    # File 2: created, never deleted.
    storage.append(make_storage(timestamp=0, node_id=2, operation=ApiOperation.UPLOAD))
    # Directory 3: created via Make and deleted after 3 days.
    storage.append(make_storage(timestamp=0, node_id=3, operation=ApiOperation.MAKE,
                                node_kind=NodeKind.DIRECTORY))
    storage.append(make_storage(timestamp=3 * DAY, node_id=3,
                                operation=ApiOperation.UNLINK,
                                node_kind=NodeKind.DIRECTORY))
    # File 4: only downloaded (existed before the trace) -> not counted as created.
    storage.append(make_storage(timestamp=10, node_id=4,
                                operation=ApiOperation.DOWNLOAD))
    return TraceDataset(storage=storage)


class TestNodeLifetimes:
    def test_created_and_deleted_counts(self, crafted):
        analysis = node_lifetimes(crafted)
        assert analysis.files_created == 2
        assert analysis.directories_created == 1
        assert analysis.files_deleted == 1
        assert analysis.directories_deleted == 1

    def test_lifetime_values(self, crafted):
        analysis = node_lifetimes(crafted)
        assert analysis.file_lifetimes[0] == pytest.approx(2 * HOUR)
        assert analysis.directory_lifetimes[0] == pytest.approx(3 * DAY)

    def test_deleted_fractions(self, crafted):
        analysis = node_lifetimes(crafted)
        assert analysis.deleted_fraction(NodeKind.FILE) == pytest.approx(0.5)
        assert analysis.deleted_fraction(NodeKind.DIRECTORY) == pytest.approx(1.0)
        assert analysis.short_lived_share(NodeKind.FILE) == pytest.approx(0.5)
        assert analysis.short_lived_share(NodeKind.DIRECTORY) == 0.0

    def test_cdf_requires_deletions(self):
        dataset = TraceDataset(
            storage=[make_storage(node_id=1, operation=ApiOperation.UPLOAD)])
        analysis = node_lifetimes(dataset)
        with pytest.raises(ValueError):
            analysis.lifetime_cdf(NodeKind.FILE)

    def test_simulated_dataset_shape(self, simulated_dataset):
        analysis = node_lifetimes(simulated_dataset)
        assert analysis.files_created > 100
        # A visible share of files created in the window is also deleted in it
        # (the paper reports ~29 % within a month; the window here is shorter).
        assert 0.02 < analysis.deleted_fraction(NodeKind.FILE) < 0.8
        # Short-lived files exist (paper: 17 % die within 8 hours).
        assert analysis.short_lived_share(NodeKind.FILE) > 0.01
