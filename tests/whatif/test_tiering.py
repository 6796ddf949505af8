"""Tests for tiering policies and the tiered object store."""

from __future__ import annotations

import pytest

from repro.backend.datastore import ObjectStore
from repro.util.units import DAY, HOUR
from repro.whatif.tiering import TieringPolicy


def make_store(**policy_kwargs) -> ObjectStore:
    return ObjectStore(tiering=TieringPolicy(**policy_kwargs))


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
            ObjectStore(tiering=TieringPolicy(eviction="nope"))


class TestAgeThresholdTiering:
    def test_fresh_objects_are_hot(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        assert "a" not in store._cold
        assert store.accounting.hot_bytes == 100
        assert store.accounting.cold_bytes == 0

    def test_download_within_threshold_is_a_hot_hit(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        store.get("a", now=HOUR)
        accounting = store.accounting
        assert accounting.hot_hits == 1
        assert accounting.cold_hits == 0
        assert accounting.migrations == 0

    def test_idle_object_served_cold_then_promoted(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        store.get("a", now=2 * DAY)
        accounting = store.accounting
        # Demoted during the idle gap, served cold, promoted back.
        assert accounting.cold_hits == 1
        assert accounting.cold_retrieved_bytes == 100
        assert accounting.migrated_cold_bytes == 100
        assert accounting.migrated_hot_bytes == 100
        assert accounting.migrations == 2
        assert "a" not in store._cold
        assert accounting.hot_bytes == 100 and accounting.cold_bytes == 0

    def test_no_promotion_keeps_object_cold(self):
        store = make_store(age_threshold=DAY, promote_on_access=False)
        store.put("a", 100, now=0.0)
        store.get("a", now=2 * DAY)
        store.get("a", now=2 * DAY + 1.0)  # immediately again: still cold
        accounting = store.accounting
        assert "a" in store._cold
        assert accounting.cold_hits == 2
        assert accounting.cold_retrieved_bytes == 200
        assert accounting.migrated_hot_bytes == 0

    def test_dedup_touch_refreshes_idle_clock(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        store.put("a", 100, now=0.9 * DAY)   # dedup hit touches the object
        store.get("a", now=1.5 * DAY)        # only 0.6d idle since the touch
        assert store.accounting.hot_hits == 1
        assert store.accounting.cold_hits == 0

    def test_finalize_demotes_idle_objects(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        store.put("b", 50, now=2.5 * DAY)
        store.finalize_tiers(3 * DAY)
        accounting = store.accounting
        assert "a" in store._cold and "b" not in store._cold
        assert accounting.cold_bytes == 100
        assert accounting.hot_bytes == 50
        assert accounting.hot_bytes + accounting.cold_bytes \
            == accounting.bytes_stored

    def test_unlink_realises_pending_demotion(self):
        store = make_store(age_threshold=DAY)
        store.put("a", 100, now=0.0)
        assert store.unlink("a", now=2 * DAY)
        accounting = store.accounting
        assert accounting.migrated_cold_bytes == 100
        assert accounting.hot_bytes == 0 and accounting.cold_bytes == 0
        assert accounting.bytes_stored == 0

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
        store = make_store(age_threshold=10 * DAY, hot_capacity_bytes=250,
                           eviction="lru")
        store.put("old", 100, now=0.0)
        store.put("mid", 100, now=10.0)
        store.get("old", now=20.0)           # now "mid" is the stalest
        store.put("new", 100, now=30.0)      # 300 > 250: evict one
        assert "mid" in store._cold
        assert "old" not in store._cold and "new" not in store._cold
        assert store.accounting.hot_bytes == 200

    def test_lfu_evicts_least_frequent_first(self):
        store = make_store(age_threshold=10 * DAY, hot_capacity_bytes=250,
                           eviction="lfu")
        store.put("hotter", 100, now=0.0)
        store.put("colder", 100, now=1.0)
        store.get("hotter", now=2.0)
        store.get("hotter", now=3.0)
        store.put("new", 100, now=4.0)
        assert "colder" in store._cold
        assert "hotter" not in store._cold

    def test_size_aware_evicts_largest_first(self):
        store = make_store(age_threshold=10 * DAY, hot_capacity_bytes=250,
                           eviction="size")
        store.put("big", 180, now=0.0)
        store.put("small", 60, now=1.0)
        store.put("tiny", 30, now=2.0)       # 270 > 250: evict the 180
        assert "big" in store._cold
        assert store.accounting.hot_bytes == 90

    def test_eviction_is_batched_until_budget_fits(self):
        store = make_store(age_threshold=10 * DAY, hot_capacity_bytes=100,
                           eviction="lru")
        for i in range(5):
            store.put(f"o{i}", 60, now=float(i))
        accounting = store.accounting
        assert accounting.hot_bytes <= 100
        assert accounting.hot_bytes + accounting.cold_bytes \
            == accounting.bytes_stored

    def test_promotion_respects_capacity(self):
        store = make_store(age_threshold=DAY, hot_capacity_bytes=150,
                           eviction="lru")
        store.put("a", 100, now=0.0)
        store.put("b", 100, now=0.0)         # overflow: "a" goes cold
        assert "a" in store._cold
        store.get("a", now=1.0)              # promote "a": overflow again
        assert "a" not in store._cold
        assert store.accounting.hot_bytes <= 150
