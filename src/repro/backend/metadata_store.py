"""The sharded metadata store (Section 3.4).

Ten shards (each a PostgreSQL master-slave pair in the real deployment),
routed by user id so that a user's metadata always lives in a single shard.
:class:`ShardedMetadataStore` implements the routing and exposes the shard
DAL surface; it also supports an alternative round-robin routing policy used
by the sharding ablation benchmark.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.backend.shard import MetadataShard

__all__ = ["ShardedMetadataStore", "user_id_routing", "round_robin_routing"]


def user_id_routing(n_shards: int) -> Callable[[int], int]:
    """The production routing policy: shard = user id modulo shard count."""
    def route(user_id: int) -> int:
        return user_id % n_shards
    return route


def round_robin_routing(n_shards: int) -> Callable[[int], int]:
    """Ablation policy: ignore the user id and rotate across shards.

    This breaks the "all metadata of a user in one shard" invariant and is
    only meant to quantify, in the ablation benchmark, how much of the
    short-window imbalance of Fig. 14 is caused by bursty per-user activity
    concentrating on single shards.
    """
    counter = {"next": 0}

    def route(_user_id: int) -> int:
        shard = counter["next"]
        counter["next"] = (shard + 1) % n_shards
        return shard
    return route


class ShardedMetadataStore:
    """Routes DAL operations to the appropriate :class:`MetadataShard`."""

    def __init__(self, n_shards: int = 10,
                 routing_factory: Callable[[int], Callable[[int], int]] = user_id_routing):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self._shards = [MetadataShard(shard_id=i) for i in range(n_shards)]
        self._route = routing_factory(n_shards)
        #: True when a user's shard can never change between requests (the
        #: production user-id policy).  API servers use this to cache the
        #: routed shard on the session handle and to skip the per-request
        #: user re-registration that only round-robin routing needs.
        self.stable_routing = routing_factory is user_id_routing

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
        return self._route(user_id)

    def shard_and_id(self, user_id: int) -> tuple[MetadataShard, int]:
        """``(shard, shard_id)`` in one routing call (request hot path)."""
        shard_id = self._route(user_id)
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

    def write_rejections_per_shard(self) -> list[int]:
        """Mutations each shard rejected while read-only (fault injection)."""
        return [shard.write_rejections for shard in self._shards]

    # ------------------------------------------------------ sharded replay
    def summary(self) -> list[tuple[int, int, int, int]]:
        """Per-shard ``(users, nodes, requests, write_rejections)`` counts
        (picklable)."""
        return [shard.local_counts() for shard in self._shards]

    def absorb_summary(self,
                       summary: list[tuple[int, int, int, int]]) -> None:
        """Fold one replay shard's store outcome into this store's counters.

        The sharded replay engine runs a private store per replay shard
        (replay shards own disjoint users, so their stores never interact);
        absorbing each shard's summary keeps :meth:`users_per_shard` /
        :meth:`nodes_per_shard` / :meth:`requests_per_shard` /
        :meth:`write_rejections_per_shard` fleet-wide.
        """
        if len(summary) != len(self._shards):
            raise ValueError("summary shard count mismatch")
        for shard, counts in zip(self._shards, summary):
            shard.absorb_counts(*counts)
