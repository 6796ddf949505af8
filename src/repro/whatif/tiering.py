"""Hot/cold tiering what-ifs for the object store (Section 9).

A :class:`TieringPolicy` describes when stored contents migrate between the
hot (standard) and cold (archive) tiers:

* **age-threshold demotion** — an object idle for longer than
  ``age_threshold`` migrates to cold.  The transition is *lazily realised*
  at the object's next tier event (touch, download or removal) or at the
  end-of-trace :meth:`TierEngine.finalize` sweep, which makes the realised
  counters a pure function of the event sequence.
* **capacity eviction** — when ``hot_capacity_bytes`` is set and the hot
  tier overflows, objects are demoted in eviction order (``lru``: stalest
  last-access first; ``lfu``: fewest accesses first; ``size``: largest
  first) until the tier fits.  Ties break on admission order, so eviction is
  deterministic.
* **promotion** — ``promote_on_access`` decides whether a cold object that
  gets touched again migrates back to hot (paying the promotion migration)
  or is served from cold forever after.

Tiering is an offline what-if only: the back-end store has one tier.
:class:`TierEngine` applies a policy to the tier-event log that the what-if
metadata pass (:mod:`repro.whatif.simulator`) records — one ``(kind,
segment, ts)`` tuple per admit, touch, download and removal, where a
*segment* is one object life (admission to removal) numbered in admission
order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.util.units import DAY, WEEK

__all__ = ["ADMIT", "DOWNLOAD", "EVICTION_POLICIES", "REMOVE", "TIER_FIELDS",
           "TOUCH", "TierEngine", "TieringPolicy"]

#: Recognised eviction orderings for capacity-driven demotion.
EVICTION_POLICIES = ("lru", "lfu", "size")

#: Tier-event kinds of a recorded log: a stored object's admission, a
#: non-download touch (dedup hit), a download, a physical removal.
ADMIT, TOUCH, DOWNLOAD, REMOVE = range(4)

#: The :class:`~repro.backend.datastore.StorageAccounting` fields a tier
#: engine produces.
TIER_FIELDS = ("hot_bytes", "cold_bytes", "hot_hits", "cold_hits",
               "cold_retrieved_bytes", "migrated_cold_bytes",
               "migrated_hot_bytes", "migrations")


@dataclass(frozen=True)
class TieringPolicy:
    """Migration rules of a two-tier (hot/cold) object store."""

    #: Idle time after which an object is considered cold.
    age_threshold: float = WEEK
    #: Hot-tier byte budget; ``None`` disables capacity eviction.
    hot_capacity_bytes: int | None = None
    #: Eviction order when the hot tier overflows: ``lru``/``lfu``/``size``.
    eviction: str = "lru"
    #: Whether a touched cold object migrates back to the hot tier.
    promote_on_access: bool = True

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.age_threshold <= 0:
            raise ValueError("age_threshold must be positive")
        if self.hot_capacity_bytes is not None and self.hot_capacity_bytes <= 0:
            raise ValueError("hot_capacity_bytes must be positive or None")
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"eviction must be one of {EVICTION_POLICIES}, "
                f"got {self.eviction!r}")

    def describe(self) -> str:
        """Short human-readable summary (used by sweep tables)."""
        parts = [f"age>{self.age_threshold / DAY:g}d"]
        if self.hot_capacity_bytes is not None:
            parts.append(f"{self.eviction}@{self.hot_capacity_bytes} B hot")
        if not self.promote_on_access:
            parts.append("no-promote")
        return ", ".join(parts)


class TierEngine:
    """A two-tier (hot/cold) store's tier state, driven by tier events.

    Objects are keyed by their segment ordinal; ``sizes[segment]`` is the
    object's size.  New objects are admitted hot.  Capacity eviction pops a
    lazy heap of eviction metrics: one is pushed at every metric change of
    a hot object, and stale entries (metric no longer current, object gone
    or already cold) are skipped at pop time.  Every metric ends in the
    segment ordinal, so the order is total and the heap pops in exactly the
    order a full eviction sort of the hot objects would give.
    """

    def __init__(self, policy: TieringPolicy, sizes):
        policy.validate()
        self._threshold = policy.age_threshold
        self._capacity = policy.hot_capacity_bytes
        self._promote_on_access = policy.promote_on_access
        self._sizes = sizes
        self._cold: set[int] = set()
        #: Live segment -> instant of its last tier event.
        self._last_access: dict[int, float] = {}
        self._access_count: dict[int, int] = {}
        self._heap: list[tuple] = []
        last_access, access_count = self._last_access, self._access_count
        self._eviction_key = {
            "lru": lambda seg: (last_access[seg], seg),
            "lfu": lambda seg: (access_count[seg], last_access[seg], seg),
            "size": lambda seg: (-sizes[seg], seg),
        }[policy.eviction]
        self.hot_bytes = 0
        self.cold_bytes = 0
        self.hot_hits = 0
        self.cold_hits = 0
        self.cold_retrieved_bytes = 0
        self.migrated_cold_bytes = 0
        self.migrated_hot_bytes = 0
        self.migrations = 0

    def counters(self) -> dict[str, int]:
        """The tier counters, keyed by :data:`TIER_FIELDS`."""
        return {name: getattr(self, name) for name in TIER_FIELDS}

    def run(self, events, end_time: float) -> "TierEngine":
        """Apply a ``(kind, segment, ts)`` log, then :meth:`finalize`."""
        admit, touch, remove = self.admit, self.touch, self.remove
        for kind, seg, ts in events:
            if kind == DOWNLOAD:
                touch(seg, ts, True)
            elif kind == ADMIT:
                admit(seg, ts)
            elif kind == TOUCH:
                touch(seg, ts, False)
            else:
                remove(seg, ts)
        self.finalize(end_time)
        return self

    def admit(self, seg: int, now: float) -> None:
        """A freshly stored object enters the hot tier."""
        self.hot_bytes += self._sizes[seg]
        self._last_access[seg] = now
        self._access_count[seg] = 1
        if self._capacity is not None:
            self._push(seg)
            self._enforce_capacity()

    def touch(self, seg: int, now: float, download: bool) -> None:
        """Touch a stored object: realise lazy demotion, count the hit,
        optionally promote, refresh the idle clock."""
        size = self._sizes[seg]
        cold = seg in self._cold
        if not cold and now - self._last_access[seg] > self._threshold:
            # The object went cold during the idle gap; realise it now.
            self._demote(seg, size)
            cold = True
        if download:
            if cold:
                self.cold_hits += 1
                self.cold_retrieved_bytes += size
            else:
                self.hot_hits += 1
        promote = cold and self._promote_on_access
        if promote:
            self._cold.discard(seg)
            self.cold_bytes -= size
            self.hot_bytes += size
            self.migrated_hot_bytes += size
            self.migrations += 1
        self._last_access[seg] = now
        self._access_count[seg] += 1
        if self._capacity is not None and (promote or not cold):
            self._push(seg)
            if promote:
                self._enforce_capacity()

    def remove(self, seg: int, now: float) -> None:
        """Drop a physically deleted object, realising a pending demotion."""
        size = self._sizes[seg]
        if seg not in self._cold \
                and now - self._last_access[seg] > self._threshold:
            self._demote(seg, size)
        if seg in self._cold:
            self.cold_bytes -= size
            self._cold.discard(seg)
        else:
            self.hot_bytes -= size
        del self._last_access[seg]
        del self._access_count[seg]

    def finalize(self, now: float) -> None:
        """Realise the age-demotions still pending at instant ``now``, so the
        hot/cold split covers the whole observation window."""
        threshold = self._threshold
        cold = self._cold
        for seg, last in self._last_access.items():
            if seg not in cold and now - last > threshold:
                self._demote(seg, self._sizes[seg])

    def _demote(self, seg: int, size: int) -> None:
        self._cold.add(seg)
        self.hot_bytes -= size
        self.cold_bytes += size
        self.migrated_cold_bytes += size
        self.migrations += 1

    def _push(self, seg: int) -> None:
        """Push a hot object's current eviction metric; compact stale debt.

        Every touch leaves the previous entry stale, so the heap is rebuilt
        from the live hot set once it outgrows it ~4x — keeping it O(hot
        objects) instead of O(total events).
        """
        heap = self._heap
        cold = self._cold
        if len(heap) > 4 * (len(self._last_access) - len(cold)) + 64:
            eviction_key = self._eviction_key
            heap[:] = [eviction_key(s) for s in self._last_access
                       if s not in cold]
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, self._eviction_key(seg))

    def _enforce_capacity(self) -> None:
        """Demote hot objects in eviction order until the budget fits."""
        heap = self._heap
        live = self._last_access
        cold = self._cold
        while self.hot_bytes > self._capacity and heap:
            metric = heapq.heappop(heap)
            seg = metric[-1]
            if seg not in live or seg in cold:
                continue  # removed or already cold
            if metric != self._eviction_key(seg):
                continue  # stale entry; a fresher one is in the heap
            self._demote(seg, self._sizes[seg])
