"""Tests for the Fig. 3a/3b file-operation dependency analyses."""

from __future__ import annotations

import pytest

from repro.core.file_dependencies import (
    Dependency,
    downloads_per_file,
    dying_files,
    file_dependencies,
)
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from repro.util.units import DAY, HOUR
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    """One file with a known W->W->R->R->D history plus a second file W->R."""
    storage = []
    timeline = [
        (0, ApiOperation.UPLOAD), (600, ApiOperation.UPLOAD),
        (1200, ApiOperation.DOWNLOAD), (1200 + 2 * HOUR, ApiOperation.DOWNLOAD),
        (2 * DAY, ApiOperation.UNLINK),
    ]
    for ts, op in timeline:
        storage.append(make_storage(timestamp=ts, node_id=1, operation=op))
    storage.append(make_storage(timestamp=100, node_id=2,
                                operation=ApiOperation.UPLOAD))
    storage.append(make_storage(timestamp=200, node_id=2,
                                operation=ApiOperation.DOWNLOAD))
    return TraceDataset(storage=storage)


class TestDependencies:
    def test_pair_counts(self, crafted):
        analysis = file_dependencies(crafted)
        assert analysis.count(Dependency.WAW) == 1
        assert analysis.count(Dependency.RAW) == 2   # both files have W->R
        assert analysis.count(Dependency.RAR) == 1
        assert analysis.count(Dependency.DAR) == 1
        assert analysis.count(Dependency.WAR) == 0
        assert analysis.count(Dependency.DAW) == 0

    def test_totals_and_shares(self, crafted):
        analysis = file_dependencies(crafted)
        assert analysis.total_after_write() == 3
        assert analysis.total_after_read() == 2
        assert analysis.share_after_write(Dependency.RAW) == pytest.approx(2 / 3)
        assert analysis.share_after_read(Dependency.RAR) == pytest.approx(0.5)

    def test_gap_values(self, crafted):
        analysis = file_dependencies(crafted)
        assert analysis.times[Dependency.WAW][0] == pytest.approx(600.0)
        assert analysis.fraction_within(Dependency.WAW, HOUR) == 1.0
        cdf = analysis.cdf(Dependency.RAW)
        assert cdf.n == 2

    def test_cdf_of_empty_dependency_raises(self, crafted):
        analysis = file_dependencies(crafted)
        with pytest.raises(ValueError):
            analysis.cdf(Dependency.WAR)

    def test_nothing_follows_a_delete(self):
        dataset = TraceDataset(storage=[
            make_storage(timestamp=0, node_id=1, operation=ApiOperation.UNLINK),
            make_storage(timestamp=10, node_id=1, operation=ApiOperation.UPLOAD)])
        analysis = file_dependencies(dataset)
        assert analysis.total_after_write() == 0
        assert analysis.total_after_read() == 0

    def test_simulated_dataset_shape(self, simulated_dataset):
        analysis = file_dependencies(simulated_dataset)
        # Fig. 3a: WAW dependencies are a substantial share of the
        # after-write pairs (the editing-burst update targeting makes
        # consecutive same-file re-uploads common — "WAW is the most common
        # dependency"), and most WAW gaps are short (paper: 80 % < 1 h).
        # The share still swings with the realised upload/download mix of
        # the seed (download-heavy realisations convert would-be WAW chains
        # into RAW via sync reads): re-calibrated seeds realise 0.14-0.44 at
        # this scale, so the bound sits below that band while still
        # catching any regression back to the pre-recalibration ~0.05.
        assert analysis.count(Dependency.WAW) > 0
        assert analysis.share_after_write(Dependency.WAW) > 0.10
        assert analysis.fraction_within(Dependency.WAW, HOUR) > 0.7
        # X-after-read is dominated by repeated reads rather than rewrites.
        assert analysis.share_after_read(Dependency.RAR) > \
            analysis.share_after_read(Dependency.WAR)


class TestDownloadsPerFile:
    def test_counts(self, crafted):
        counts = downloads_per_file(crafted)
        assert sorted(counts) == [1.0, 2.0]

    def test_long_tail_in_simulated_dataset(self, simulated_dataset):
        counts = downloads_per_file(simulated_dataset)
        assert counts.size > 0
        # Some files are downloaded several times while most are fetched once.
        assert counts.min() >= 1
        assert counts.max() >= 3


class TestDyingFiles:
    def test_detects_idle_before_delete(self, crafted):
        report = dying_files(crafted, idle_threshold=DAY)
        assert report.deleted_files == 1
        assert report.dying_files == 1
        assert 0 < report.share_of_all_files <= 1

    def test_threshold_excludes_fast_deletes(self):
        dataset = TraceDataset(storage=[
            make_storage(timestamp=0, node_id=1, operation=ApiOperation.UPLOAD),
            make_storage(timestamp=60, node_id=1, operation=ApiOperation.UNLINK)])
        report = dying_files(dataset, idle_threshold=DAY)
        assert report.dying_files == 0
        assert report.deleted_files == 1
