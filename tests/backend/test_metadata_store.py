"""Unit tests for the sharded metadata store and its user-id routing."""

from __future__ import annotations

import pytest

from repro.backend.metadata_store import ShardedMetadataStore


class TestRouting:
    def test_user_id_routing_is_stable(self):
        store = ShardedMetadataStore(n_shards=10)
        shard, shard_id = store.shard_and_id(12)
        assert shard_id == shard.shard_id == 2
        assert store.shard_and_id(12) == (shard, 2)
        assert store.shard_and_id(20)[1] == 0

    @pytest.mark.parametrize("n_shards", [1, 3, 10])
    def test_shard_and_id_is_user_id_modulo_shard_count(self, n_shards):
        store = ShardedMetadataStore(n_shards=n_shards)
        for user_id in range(0, 120, 7):
            shard, shard_id = store.shard_and_id(user_id)
            assert shard_id == user_id % n_shards
            assert shard is store.shard_and_id(shard_id)[0]
            assert shard.shard_id == shard_id


class TestShardedStore:
    def test_shard_count_and_lookup(self):
        store = ShardedMetadataStore(n_shards=4)
        assert store.n_shards == 4
        shard, shard_id = store.shard_and_id(7)
        assert shard_id == shard.shard_id == 3

    def test_all_metadata_of_a_user_lives_in_one_shard(self):
        store = ShardedMetadataStore(n_shards=5)
        for user_id in range(50):
            store.shard_and_id(user_id)[0].ensure_user(user_id, -user_id,
                                                       now=0.0)
        users_per_shard = [len(store.shard_and_id(shard_id)[0]._users)
                           for shard_id in range(5)]
        assert sum(users_per_shard) == 50
        # Routing by modulo spreads sequential ids evenly.
        assert max(users_per_shard) == min(users_per_shard)

    def test_nodes_live_in_their_users_shard(self):
        from repro.trace.records import NodeKind

        store = ShardedMetadataStore(n_shards=2)
        shard = store.shard_and_id(1)[0]
        shard.ensure_user(1, -1, now=0.0)
        shard.make_node(1, -1, 10, NodeKind.FILE, "txt", now=1.0)
        assert [len(store.shard_and_id(shard_id)[0]._nodes)
                for shard_id in range(2)] == [0, 1]

    def test_pending_uploadjobs_iteration(self):
        store = ShardedMetadataStore(n_shards=2)
        shard = store.shard_and_id(1)[0]
        shard.ensure_user(1, -1, now=0.0)
        shard.make_uploadjob(1, 5, -1, "h", 100, now=0.0, chunk_bytes=50)
        pending = list(store.pending_uploadjobs())
        assert len(pending) == 1
        assert pending[0][0] is shard
        assert len(pending[0][1]) == 1

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedMetadataStore(n_shards=0)
