"""Tests for the Fig. 4b/4c file-size and file-category analyses."""

from __future__ import annotations

import pytest

from repro.core.file_types import category_shares, file_size_analysis
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation
from repro.util.units import KB, MB
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    files = [
        (1, 4 * KB, "py"), (2, 8 * KB, "py"), (3, 5 * MB, "mp3"),
        (4, 200 * KB, "jpg"), (5, 100 * KB, "pdf"),
    ]
    for node_id, size, ext in files:
        storage.append(make_storage(node_id=node_id, size_bytes=size,
                                    extension=ext,
                                    operation=ApiOperation.UPLOAD))
    # A later update of node 1 changes its size; the analysis keeps the last.
    storage.append(make_storage(timestamp=100, node_id=1, size_bytes=6 * KB,
                                extension="py", is_update=True,
                                operation=ApiOperation.UPLOAD))
    return TraceDataset(storage=storage)


class TestFileSizes:
    def test_counts_distinct_files(self, crafted):
        analysis = file_size_analysis(crafted)
        assert analysis.n_files == 5
        assert analysis.median_size("py") == pytest.approx((6 * KB + 8 * KB) / 2)

    def test_fraction_below(self, crafted):
        analysis = file_size_analysis(crafted)
        assert analysis.fraction_below(1 * MB) == pytest.approx(4 / 5)

    def test_per_extension_cdfs(self, crafted):
        analysis = file_size_analysis(crafted)
        assert analysis.extension_cdf("py").n == 2
        with pytest.raises(ValueError):
            analysis.extension_cdf("zip")

    def test_simulated_dataset_matches_fig4b_shape(self, simulated_dataset):
        analysis = file_size_analysis(simulated_dataset)
        # ~90 % of files are below 1 MB in the paper; the synthetic workload
        # lands in the same small-file-dominated regime.
        assert analysis.fraction_below(1 * MB) > 0.7
        # Media files are much larger than code files.
        assert analysis.median_size("mp3") > 20 * analysis.median_size("py")


class TestCategoryShares:
    def test_shares_sum_to_one(self, crafted):
        shares = category_shares(crafted)
        assert sum(s.file_share for s in shares.values()) == pytest.approx(1.0)
        assert sum(s.storage_share for s in shares.values()) == pytest.approx(1.0)

    def test_known_split(self, crafted):
        shares = category_shares(crafted)
        assert shares["Code"].file_count == 2
        assert shares["Audio/Video"].file_count == 1
        # The single mp3 dominates storage despite being 20 % of files.
        assert shares["Audio/Video"].storage_share > 0.8
        assert shares["Code"].storage_share < 0.05

    def test_simulated_dataset_matches_fig4c_shape(self, simulated_dataset):
        shares = category_shares(simulated_dataset)
        # Fig. 4c: Code is the most numerous category but holds little
        # storage; Audio/Video holds the most storage with few files.
        assert shares["Code"].file_share > shares["Audio/Video"].file_share
        assert shares["Audio/Video"].storage_share > shares["Code"].storage_share
        assert shares["Audio/Video"].storage_share == max(
            s.storage_share for s in shares.values())
