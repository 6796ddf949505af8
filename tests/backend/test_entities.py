"""Unit tests for protocol entities."""

from __future__ import annotations

import pytest

from repro.backend.protocol.entities import Node, SessionHandle, Volume
from repro.backend.shard import MetadataShard
from repro.trace.records import NodeKind, VolumeType


class TestEntities:
    def test_node_content_application(self):
        node = Node(node_id=1, volume_id=2, owner_id=3, kind=NodeKind.FILE)
        node.apply_content("sha1:x", 100, when=5.0)
        node.apply_content("sha1:y", 200, when=6.0)
        assert node.generation == 2
        assert node.size_bytes == 200
        assert node.is_file

    def test_node_rejects_negative_size(self):
        node = Node(node_id=1, volume_id=2, owner_id=3, kind=NodeKind.FILE)
        with pytest.raises(ValueError):
            node.apply_content("sha1:x", -5, when=1.0)

    def test_volume_generation_bump(self):
        volume = Volume(volume_id=1, owner_id=2, volume_type=VolumeType.UDF)
        assert volume.bump_generation() == 1
        assert volume.bump_generation() == 2
        assert volume.node_count == 0

    def test_session_handle_fields(self):
        shard = MetadataShard(shard_id=2)
        handle = SessionHandle(1, 2, shard, 2)
        assert (handle.session_id, handle.user_id) == (1, 2)
        assert (handle.shard, handle.shard_id) == (shard, 2)

    def test_session_handle_requires_its_shard(self):
        with pytest.raises(TypeError):
            SessionHandle(1, 2)

