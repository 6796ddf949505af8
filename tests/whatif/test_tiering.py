"""Tests for tiering policies and the what-if tier engine.

:class:`ReferenceTiers` is a brute-force model of the same lazy semantics:
it evicts by a full sort of the hot objects on every overflow instead of
the engine's lazy heap.  The property test drives both (and the vectorised
age kernel) through generated tier-event logs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.datastore import ObjectStore
from repro.util.units import DAY, HOUR
from repro.whatif.simulator import _MetadataPass, _simulate_age_policy
from repro.whatif.tiering import (
    ADMIT,
    DOWNLOAD,
    EVICTION_POLICIES,
    REMOVE,
    TIER_FIELDS,
    TOUCH,
    TierEngine,
    TieringPolicy,
)


def make_engine(sizes, **policy_kwargs) -> TierEngine:
    return TierEngine(TieringPolicy(**policy_kwargs), sizes)


class ReferenceTiers:
    """The tier semantics, evicting by a full sort on every overflow."""

    def __init__(self, policy: TieringPolicy, sizes):
        self.policy = policy
        self.sizes = sizes
        self.cold: set[int] = set()
        self.last_access: dict[int, float] = {}
        self.access_count: dict[int, int] = {}
        self.counters = dict.fromkeys(TIER_FIELDS, 0)

    def run(self, events, end_time: float) -> dict[str, int]:
        for kind, seg, ts in events:
            if kind == ADMIT:
                self.counters["hot_bytes"] += self.sizes[seg]
                self.last_access[seg] = ts
                self.access_count[seg] = 1
                self._evict()
            elif kind == REMOVE:
                self._age(seg, ts)
                field = "cold_bytes" if seg in self.cold else "hot_bytes"
                self.counters[field] -= self.sizes[seg]
                self.cold.discard(seg)
                del self.last_access[seg], self.access_count[seg]
            else:
                self._touch(seg, ts, kind == DOWNLOAD)
        for seg in list(self.last_access):
            self._age(seg, end_time)
        return self.counters

    def _touch(self, seg: int, ts: float, download: bool) -> None:
        self._age(seg, ts)
        size = self.sizes[seg]
        cold = seg in self.cold
        if download:
            self.counters["cold_hits" if cold else "hot_hits"] += 1
            if cold:
                self.counters["cold_retrieved_bytes"] += size
        self.last_access[seg] = ts
        self.access_count[seg] += 1
        if cold and self.policy.promote_on_access:
            self.cold.discard(seg)
            self.counters["cold_bytes"] -= size
            self.counters["hot_bytes"] += size
            self.counters["migrated_hot_bytes"] += size
            self.counters["migrations"] += 1
            self._evict()

    def _age(self, seg: int, now: float) -> None:
        if seg not in self.cold \
                and now - self.last_access[seg] > self.policy.age_threshold:
            self._demote(seg)

    def _demote(self, seg: int) -> None:
        size = self.sizes[seg]
        self.cold.add(seg)
        self.counters["hot_bytes"] -= size
        self.counters["cold_bytes"] += size
        self.counters["migrated_cold_bytes"] += size
        self.counters["migrations"] += 1

    def _evict(self) -> None:
        capacity = self.policy.hot_capacity_bytes
        if capacity is None:
            return
        metric = {
            "lru": lambda s: (self.last_access[s], s),
            "lfu": lambda s: (self.access_count[s], self.last_access[s], s),
            "size": lambda s: (-self.sizes[s], s),
        }[self.policy.eviction]
        for seg in sorted((s for s in self.last_access if s not in self.cold),
                          key=metric):
            if self.counters["hot_bytes"] <= capacity:
                break
            self._demote(seg)


class TestPolicyValidation:
    def test_defaults_valid(self):
        TieringPolicy().validate()

    @pytest.mark.parametrize("kwargs", [
        {"age_threshold": 0.0},
        {"age_threshold": -1.0},
        {"hot_capacity_bytes": 0},
        {"eviction": "random"},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TieringPolicy(**kwargs).validate()

    def test_store_validates_policy_at_construction(self):
        with pytest.raises(ValueError):
            TierEngine(TieringPolicy(eviction="nope"), [])


class TestAgeThresholdTiering:
    def test_fresh_objects_are_hot(self):
        engine = make_engine([100], age_threshold=DAY)
        engine.admit(0, 0.0)
        assert 0 not in engine._cold
        assert engine.hot_bytes == 100
        assert engine.cold_bytes == 0

    def test_download_within_threshold_is_a_hot_hit(self):
        engine = make_engine([100], age_threshold=DAY)
        engine.admit(0, 0.0)
        engine.touch(0, HOUR, download=True)
        assert engine.hot_hits == 1
        assert engine.cold_hits == 0
        assert engine.migrations == 0

    def test_idle_object_served_cold_then_promoted(self):
        engine = make_engine([100], age_threshold=DAY)
        engine.admit(0, 0.0)
        engine.touch(0, 2 * DAY, download=True)
        # Demoted during the idle gap, served cold, promoted back.
        assert engine.cold_hits == 1
        assert engine.cold_retrieved_bytes == 100
        assert engine.migrated_cold_bytes == 100
        assert engine.migrated_hot_bytes == 100
        assert engine.migrations == 2
        assert 0 not in engine._cold
        assert engine.hot_bytes == 100 and engine.cold_bytes == 0

    def test_no_promotion_keeps_object_cold(self):
        engine = make_engine([100], age_threshold=DAY,
                             promote_on_access=False)
        engine.admit(0, 0.0)
        engine.touch(0, 2 * DAY, download=True)
        engine.touch(0, 2 * DAY + 1.0, download=True)  # still cold
        assert 0 in engine._cold
        assert engine.cold_hits == 2
        assert engine.cold_retrieved_bytes == 200
        assert engine.migrated_hot_bytes == 0

    def test_dedup_touch_refreshes_idle_clock(self):
        engine = make_engine([100], age_threshold=DAY)
        engine.admit(0, 0.0)
        engine.touch(0, 0.9 * DAY, download=False)  # a dedup hit
        engine.touch(0, 1.5 * DAY, download=True)   # only 0.6d idle
        assert engine.hot_hits == 1
        assert engine.cold_hits == 0

    def test_finalize_demotes_idle_objects(self):
        engine = make_engine([100, 50], age_threshold=DAY)
        engine.admit(0, 0.0)
        engine.admit(1, 2.5 * DAY)
        engine.finalize(3 * DAY)
        assert 0 in engine._cold and 1 not in engine._cold
        assert engine.cold_bytes == 100
        assert engine.hot_bytes == 50
        assert engine.hot_bytes + engine.cold_bytes == 150

    def test_unlink_realises_pending_demotion(self):
        engine = make_engine([100], age_threshold=DAY)
        engine.admit(0, 0.0)
        engine.remove(0, 2 * DAY)
        assert engine.migrated_cold_bytes == 100
        assert engine.hot_bytes == 0 and engine.cold_bytes == 0
        assert not engine._last_access

    def test_untiered_store_keeps_zero_tier_counters(self):
        store = ObjectStore()
        store.put("a", 100)
        store.get("a")
        accounting = store.accounting
        assert accounting.hot_bytes == 0 and accounting.cold_bytes == 0
        assert accounting.hot_hits == 0 and accounting.cold_hits == 0
        assert accounting.hot_hit_rate == 1.0


class TestCapacityEviction:
    def test_lru_evicts_stalest_first(self):
        old, mid, new = 0, 1, 2
        engine = make_engine([100, 100, 100], age_threshold=10 * DAY,
                             hot_capacity_bytes=250, eviction="lru")
        engine.admit(old, 0.0)
        engine.admit(mid, 10.0)
        engine.touch(old, 20.0, download=True)  # now "mid" is the stalest
        engine.admit(new, 30.0)                 # 300 > 250: evict one
        assert mid in engine._cold
        assert old not in engine._cold and new not in engine._cold
        assert engine.hot_bytes == 200

    def test_lfu_evicts_least_frequent_first(self):
        hotter, colder, new = 0, 1, 2
        engine = make_engine([100, 100, 100], age_threshold=10 * DAY,
                             hot_capacity_bytes=250, eviction="lfu")
        engine.admit(hotter, 0.0)
        engine.admit(colder, 1.0)
        engine.touch(hotter, 2.0, download=True)
        engine.touch(hotter, 3.0, download=True)
        engine.admit(new, 4.0)
        assert colder in engine._cold
        assert hotter not in engine._cold

    def test_size_aware_evicts_largest_first(self):
        big, small, tiny = 0, 1, 2
        engine = make_engine([180, 60, 30], age_threshold=10 * DAY,
                             hot_capacity_bytes=250, eviction="size")
        engine.admit(big, 0.0)
        engine.admit(small, 1.0)
        engine.admit(tiny, 2.0)                 # 270 > 250: evict the 180
        assert big in engine._cold
        assert engine.hot_bytes == 90

    def test_eviction_is_batched_until_budget_fits(self):
        engine = make_engine([60] * 5, age_threshold=10 * DAY,
                             hot_capacity_bytes=100, eviction="lru")
        for seg in range(5):
            engine.admit(seg, float(seg))
        assert engine.hot_bytes <= 100
        assert engine.hot_bytes + engine.cold_bytes == 300

    def test_promotion_respects_capacity(self):
        a, b = 0, 1
        engine = make_engine([100, 100], age_threshold=DAY,
                             hot_capacity_bytes=150, eviction="lru")
        engine.admit(a, 0.0)
        engine.admit(b, 0.0)                    # overflow: "a" goes cold
        assert a in engine._cold
        engine.touch(a, 1.0, download=True)     # promote "a": overflow again
        assert a not in engine._cold
        assert engine.hot_bytes <= 150


# ------------------------------------------------------------ property test
_POLICIES = st.builds(
    TieringPolicy,
    age_threshold=st.sampled_from([1.0, 4.0]),
    hot_capacity_bytes=st.none() | st.integers(1, 300),
    eviction=st.sampled_from(EVICTION_POLICIES),
    promote_on_access=st.booleans())

#: One step of a generated log: (action, which live object, size of a new
#: object, time advance).  Time advances tie, stay under and cross the
#: thresholds.
_STEPS = st.lists(st.tuples(
    st.sampled_from([ADMIT, TOUCH, DOWNLOAD, REMOVE]), st.integers(0, 7),
    st.integers(1, 120), st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])),
    max_size=60)


def _log(steps) -> tuple[list, list]:
    """A valid ``(events, sizes)`` log: touches and removals pick a live
    segment, and an action with no live segment admits one instead."""
    events, sizes, live = [], [], []
    now = 0.0
    for action, pick, size, advance in steps:
        now += advance
        if action == ADMIT or not live:
            live.append(len(sizes))
            events.append((ADMIT, len(sizes), now))
            sizes.append(size)
        elif action == REMOVE:
            events.append((REMOVE, live.pop(pick % len(live)), now))
        else:
            events.append((action, live[pick % len(live)], now))
    return events, sizes


@settings(max_examples=300, deadline=None)
@given(_STEPS, _POLICIES, st.sampled_from([0.0, 3.0, 10.0]))
def test_engine_equals_brute_force_reference(steps, policy, tail):
    events, sizes = _log(steps)
    end_time = (events[-1][2] if events else 0.0) + tail
    expected = ReferenceTiers(policy, sizes).run(events, end_time)
    engine = TierEngine(policy, sizes).run(events, end_time)
    assert engine.counters() == expected
    live = set(range(len(sizes))) - {seg for kind, seg, _ in events
                                     if kind == REMOVE}
    assert engine.hot_bytes + engine.cold_bytes \
        == sum(sizes[seg] for seg in live)
    assert engine.hot_hits + engine.cold_hits \
        == sum(kind == DOWNLOAD for kind, _, _ in events)
    if policy.hot_capacity_bytes is None:
        resolved = _MetadataPass(None, len(live), end_time, events, sizes)
        assert _simulate_age_policy(resolved, policy) == expected
