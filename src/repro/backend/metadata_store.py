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

    @property
    def shards(self) -> list[MetadataShard]:
        """The shard objects (read-only usage expected)."""
        return list(self._shards)

    def shard_id_of(self, user_id: int) -> int:
        """The shard index responsible for ``user_id``."""
        return self.shard_and_id(user_id)[1]

    def shard_and_id(self, user_id: int) -> tuple[MetadataShard, int]:
        """``(shard, shard_id)`` responsible for ``user_id``: the routing
        rule, shard id = user id modulo the shard count."""
        shard_id = user_id % len(self._shards)
        return self._shards[shard_id], shard_id

    def requests_per_shard(self) -> list[int]:
        """Total DAL requests served by each shard."""
        return [shard.requests_served for shard in self._shards]

    def users_per_shard(self) -> list[int]:
        """Number of users assigned to each shard."""
        return [shard.user_count() for shard in self._shards]

    def nodes_per_shard(self) -> list[int]:
        """Number of live nodes stored in each shard."""
        return [shard.node_count() for shard in self._shards]

    def pending_uploadjobs(self) -> Iterable[tuple[MetadataShard, list]]:
        """Iterate over ``(shard, pending_jobs)`` pairs for garbage collection."""
        for shard in self._shards:
            jobs = shard.pending_uploadjobs()
            if jobs:
                yield shard, jobs

    # ------------------------------------------------------ sharded replay
    def summary(self) -> list[tuple[int, int, int]]:
        """Per-shard ``(users, nodes, requests)`` counts (picklable)."""
        return [shard.local_counts() for shard in self._shards]

    def absorb_summary(self, summary: list[tuple[int, int, int]]) -> None:
        """Fold one replay shard's store outcome into this store's counters.

        Each replay shard runs a private store over disjoint users;
        absorbing every shard's summary keeps the per-shard counts
        fleet-wide.
        """
        if len(summary) != len(self._shards):
            raise ValueError("summary shard count mismatch")
        for shard, counts in zip(self._shards, summary):
            shard.absorb_counts(*counts)
