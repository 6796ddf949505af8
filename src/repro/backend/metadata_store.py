"""The sharded metadata store (Section 3.4).

Ten shards (each a PostgreSQL master-slave pair in the real deployment),
routed by user id — shard = user id modulo the shard count — so that all
metadata of a user lives in a single shard.  :class:`ShardedMetadataStore`
owns the shards and that one routing rule
(:meth:`~ShardedMetadataStore.shard_and_id`); an API process resolves a
session's shard once, when the session opens, and serves every request of
the session there.
"""

from __future__ import annotations

from typing import Iterable

from repro.backend.shard import MetadataShard

__all__ = ["ShardedMetadataStore"]


class ShardedMetadataStore:
    """Routes DAL operations to the appropriate :class:`MetadataShard`."""

    def __init__(self, n_shards: int = 10):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self._shards = [MetadataShard(shard_id=i) for i in range(n_shards)]

    # ------------------------------------------------------------------ shards
    @property
    def n_shards(self) -> int:
        """Number of shards in the cluster."""
        return len(self._shards)

    def shard_and_id(self, user_id: int) -> tuple[MetadataShard, int]:
        """``(shard, shard_id)`` responsible for ``user_id``: the routing
        rule, shard id = user id modulo the shard count."""
        shard_id = user_id % len(self._shards)
        return self._shards[shard_id], shard_id

    def pending_uploadjobs(self) -> Iterable[tuple[MetadataShard, list]]:
        """Iterate over ``(shard, pending_jobs)`` pairs for garbage collection."""
        for shard in self._shards:
            jobs = shard.pending_uploadjobs()
            if jobs:
                yield shard, jobs
