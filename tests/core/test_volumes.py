"""Tests for the Fig. 10/11 volume analyses."""

from __future__ import annotations

import pytest

from repro.core.volumes import volume_contents, volume_type_distribution
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, NodeKind, VolumeType
from repro.util.stats import EmpiricalCDF
from tests.conftest import make_storage


@pytest.fixture
def crafted() -> TraceDataset:
    storage = []
    # Volume 1 (root of user 1): 3 files, 1 directory.
    for node_id in (1, 2, 3):
        storage.append(make_storage(user_id=1, node_id=node_id, volume_id=1,
                                    operation=ApiOperation.UPLOAD))
    storage.append(make_storage(user_id=1, node_id=4, volume_id=1,
                                node_kind=NodeKind.DIRECTORY,
                                operation=ApiOperation.MAKE))
    # Volume 2 (UDF of user 1): 1 file.
    storage.append(make_storage(user_id=1, node_id=5, volume_id=2,
                                volume_type=VolumeType.UDF,
                                operation=ApiOperation.UPLOAD))
    # Volume 3 (shared, user 2): no files, referenced by a listing op only.
    storage.append(make_storage(user_id=2, node_id=0, volume_id=3,
                                volume_type=VolumeType.SHARED,
                                operation=ApiOperation.GET_DELTA))
    # User 3 creates a UDF volume explicitly.
    storage.append(make_storage(user_id=3, node_id=0, volume_id=4,
                                volume_type=VolumeType.UDF,
                                operation=ApiOperation.CREATE_UDF))
    return TraceDataset(storage=storage)


class TestVolumeContents:
    def test_counts_per_volume(self, crafted):
        contents = volume_contents(crafted)
        assert contents.files_per_volume[1] == 3
        assert contents.directories_per_volume[1] == 1
        assert contents.files_per_volume[2] == 1
        assert contents.files_per_volume[3] == 0

    def test_share_with_files(self, crafted):
        contents = volume_contents(crafted)
        assert contents.share_with_files() == pytest.approx(2 / 4)
        assert contents.share_heavily_loaded(threshold=2) == pytest.approx(1 / 4)

    def test_cdfs(self, crafted):
        files, dirs = volume_contents(crafted).counts()
        assert EmpiricalCDF(files).n == 4
        assert EmpiricalCDF(dirs)(0) == pytest.approx(3 / 4)

    def test_files_and_directories_correlate_in_simulation(self, simulated_dataset):
        contents = volume_contents(simulated_dataset)
        files, dirs = contents.counts()
        assert files.sum() > dirs.sum()            # files are more numerous
        assert contents.correlation() > 0.3        # paper: 0.998 at full scale

    def test_moved_node_counted_once(self):
        dataset = TraceDataset(storage=[
            make_storage(node_id=1, volume_id=1, operation=ApiOperation.UPLOAD),
            make_storage(timestamp=10, node_id=1, volume_id=2,
                         operation=ApiOperation.MOVE)])
        contents = volume_contents(dataset)
        assert contents.files_per_volume[2] == 1
        assert contents.files_per_volume[1] == 0


class TestVolumeTypes:
    def test_user_shares(self, crafted):
        distribution = volume_type_distribution(crafted)
        assert distribution.total_users == 3
        assert distribution.udf_volumes_per_user[1] == 1
        assert distribution.udf_volumes_per_user[3] == 1
        assert distribution.shared_volumes_per_user[2] == 1
        assert distribution.share_with_udf() == pytest.approx(2 / 3)
        assert distribution.share_with_shared() == pytest.approx(1 / 3)

    def test_simulated_dataset_matches_fig11_shape(self, simulated_dataset):
        distribution = volume_type_distribution(simulated_dataset)
        # Section 6.3: UDF volumes are common, shared volumes are rare.
        assert distribution.share_with_udf() > distribution.share_with_shared()
        assert distribution.share_with_shared() < 0.2
