"""Unit tests for a single metadata shard."""

from __future__ import annotations

import pytest

from repro.backend.errors import UnknownNodeError, UnknownUserError
from repro.backend.shard import MetadataShard
from repro.trace.records import NodeKind, VolumeType


@pytest.fixture
def shard() -> MetadataShard:
    shard = MetadataShard(shard_id=0)
    shard.ensure_user(user_id=1, root_volume_id=-1, now=0.0)
    return shard


class TestUsersAndVolumes:
    def test_ensure_user_is_idempotent(self, shard):
        row = shard.ensure_user(1, -1, now=5.0)
        assert row.user_id == 1
        assert list(shard._users) == [1]
        assert shard.get_root(1).volume_type is VolumeType.ROOT

    def test_unknown_user_raises(self, shard):
        with pytest.raises(UnknownUserError):
            shard.get_user_data(99)
        with pytest.raises(UnknownUserError):
            shard.list_volumes(99)

    def test_create_and_list_volumes(self, shard):
        shard.create_volume(1, 100, VolumeType.UDF, now=1.0)
        shard.create_volume(1, 101, VolumeType.SHARED, now=2.0)
        volumes = shard.list_volumes(1)
        assert {v.volume_id for v in volumes} == {-1, 100, 101}
        shares = shard.list_shares(1)
        assert [v.volume_id for v in shares] == [101]

    def test_create_volume_for_unknown_user(self, shard):
        with pytest.raises(UnknownUserError):
            shard.create_volume(42, 100, VolumeType.UDF, now=0.0)

    def test_delete_volume_cascades(self, shard):
        shard.create_volume(1, 100, VolumeType.UDF, now=0.0)
        shard.make_node(1, 100, 7, NodeKind.FILE, "txt", now=1.0)
        shard.make_node(1, 100, 8, NodeKind.FILE, "txt", now=1.0)
        removed = shard.delete_volume(1, 100)
        assert {n.node_id for n in removed} == {7, 8}
        assert not shard.has_node(7)
        assert all(v.volume_id != 100 for v in shard.list_volumes(1))

    def test_delete_missing_volume_is_noop(self, shard):
        assert shard.delete_volume(1, 999) == []


class TestNodes:
    def test_make_get_unlink(self, shard):
        node = shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=2.0)
        assert shard.get_node(5) is node
        assert list(shard._nodes) == [5]
        removed = shard.unlink_node(5)
        assert removed is node
        assert not removed.is_live
        assert shard.unlink_node(5) is None
        with pytest.raises(UnknownNodeError):
            shard.get_node(5)

    def test_make_node_is_idempotent(self, shard):
        first = shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=2.0)
        second = shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=3.0)
        assert first is second

    def test_make_content_updates_node_and_generation(self, shard):
        shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=2.0)
        before = shard.get_delta(-1)
        node = shard.make_content(5, "sha1:x", 1234, now=3.0)
        assert node.size_bytes == 1234
        assert node.content_hash == "sha1:x"
        assert shard.get_delta(-1) > before

    def test_make_content_unknown_node(self, shard):
        with pytest.raises(UnknownNodeError):
            shard.make_content(404, "h", 1, now=0.0)

    def test_move_node_between_volumes(self, shard):
        shard.create_volume(1, 100, VolumeType.UDF, now=0.0)
        shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=1.0)
        moved = shard.move_node(5, 100, now=2.0)
        assert moved.volume_id == 100
        assert 5 in shard._volumes[100].node_ids
        assert 5 not in shard._volumes[-1].node_ids

    def test_get_from_scratch_lists_everything(self, shard):
        shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=1.0)
        shard.make_node(1, -1, 6, NodeKind.DIRECTORY, "", now=1.0)
        nodes = shard.get_from_scratch(1)
        assert {n.node_id for n in nodes} == {5, 6}
        assert shard.get_from_scratch(999) == []

    def test_get_reusable_content(self, shard):
        shard.make_node(1, -1, 5, NodeKind.FILE, "pdf", now=1.0)
        shard.make_content(5, "sha1:dup", 10, now=2.0)
        assert shard.get_reusable_content("sha1:dup").node_id == 5
        assert shard.get_reusable_content("sha1:other") is None


class TestUploadJobs:
    def test_uploadjob_lifecycle_via_shard(self, shard):
        job = shard.make_uploadjob(1, 5, -1, "sha1:x", 6 * 1024 * 1024, now=0.0,
                                   chunk_bytes=5 * 1024 * 1024)
        assert shard.get_uploadjob(job.job_id) is job
        shard.set_uploadjob_multipart_id(job.job_id, "mp-1", now=1.0)
        assert shard.add_part_to_uploadjob(job.job_id, 5 * 1024 * 1024, now=2.0) == 1
        assert shard.add_part_to_uploadjob(job.job_id, 1 * 1024 * 1024, now=3.0) == 2
        shard.delete_uploadjob(job.job_id, now=4.0, commit=True)
        assert shard.get_uploadjob(job.job_id) is None
        assert shard.pending_uploadjobs() == []

    def test_delete_uploadjob_cancels_incomplete(self, shard):
        job = shard.make_uploadjob(1, 5, -1, "sha1:x", 10, now=0.0, chunk_bytes=5)
        shard.delete_uploadjob(job.job_id, now=1.0, commit=True)
        assert job.state.value == "cancelled"

    def test_touch_uploadjob(self, shard):
        job = shard.make_uploadjob(1, 5, -1, "sha1:x", 10, now=0.0, chunk_bytes=5)
        assert shard.touch_uploadjob(job.job_id, now=60.0) is False
        assert shard.touch_uploadjob(job.job_id, now=10 * 86400.0) is True
        assert shard.touch_uploadjob(9999, now=0.0) is False
