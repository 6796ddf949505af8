"""Tests for the plan/materialize generator split (PR 3).

The contract under test: planning is a global pass over the root stream,
materialization is a pure function of ``(config, plan member)`` drawing only
from per-member spawned streams — so any partition of the members, in any
process, reproduces the unsharded generator output bit-for-bit.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.workload import generator
from repro.workload.config import WorkloadConfig
from repro.workload.events import ScriptTable
from repro.workload.filemodel import FileModel, PopularContentPool
from repro.workload.generator import (
    SyntheticTraceGenerator,
    materialize_member,
    materialize_members,
    member_rng,
)
from tests.conftest import events_of, scripts_of


@pytest.fixture(scope="module")
def config():
    return WorkloadConfig.scaled(users=60, days=1.5, seed=19)


@pytest.fixture(scope="module")
def plan(config):
    return SyntheticTraceGenerator(config).plan()


class TestPlanning:
    def test_plan_is_deterministic(self, config, plan):
        other = SyntheticTraceGenerator(config).plan()
        assert [p.planned_ops for p in plan.users] == \
            [p.planned_ops for p in other.users]
        assert [p.sessions_slice for p in plan.attacks] == \
            [p.sessions_slice for p in other.attacks]
        assert plan.popular_pool.entries == other.popular_pool.entries

    def test_session_ids_unique_and_plan_allocated(self, plan):
        ids = [spec.session_id for user in plan.users for spec in user.sessions]
        assert len(ids) == len(set(ids))
        legit_max = max(ids)
        # Attack slices occupy id ranges strictly after the legitimate ones.
        for attack in plan.attacks:
            lo, hi = attack.sessions_slice
            first = attack.session_id_start + lo + 1
            assert first > legit_max

    def test_only_active_sessions_plan_operations(self, plan):
        for user in plan.users:
            for spec in user.sessions:
                if spec.active:
                    assert spec.n_ops > 0
                else:
                    assert spec.n_ops == 0

    def test_member_weights_cover_all_members(self, plan):
        weights = plan.member_weights()
        assert len(weights) == plan.n_members
        assert all(w >= 0.0 for _, w in weights)
        # Attack slices are real members with positive planned weight.
        offset = len(plan.users)
        assert all(w > 0 for key, w in weights if key >= offset)


def _canonical(scripts) -> list:
    return sorted(scripts, key=lambda s: (s.start, s.session_id))


class TestMaterialization:
    def test_any_partition_reproduces_unsharded_output(self, config, plan):
        reference = scripts_of(materialize_members(
            SyntheticTraceGenerator(config).plan()))
        indices = list(range(plan.n_members))
        parts = [indices[0::3], indices[1::3], indices[2::3]]
        merged = []
        for part in parts:
            merged.extend(scripts_of(materialize_members(plan, part)))
        merged = _canonical(merged)
        assert [s.session_id for s in merged] == \
            [s.session_id for s in reference]
        for mine, ref in zip(merged, reference):
            assert events_of(mine) == events_of(ref)

    def test_member_list_table_equals_per_member_tables(self, plan):
        """One table built for a member list decodes, script for script, to
        the per-member tables concatenated (canonical order), however the
        batches are cut and however one DDoS episode is split."""
        members = list(range(plan.n_members))
        per_member = [materialize_member(plan, index) for index in members]
        reference = _canonical(s for table in per_member
                               for s in scripts_of(table))
        assert any(s.caused_by_attack for s in reference)
        assert scripts_of(ScriptTable.concat(per_member).sorted()) == reference
        for batch_draws in (1 << 17, 64, 1):
            with mock.patch.object(generator, "_BATCH_DRAWS", batch_draws):
                assert scripts_of(materialize_members(plan, members)) == \
                    reference
        # Reversed member order changes neither the table nor a value.
        assert scripts_of(materialize_members(plan, members[::-1])) == \
            reference
        attack = plan.attacks[0]
        rng_of = lambda: member_rng(  # noqa: E731
            plan.config.seed, attack.episode.attacker_user_id)
        whole = attack.episode.generate_sessions(
            rng_of(), attack.baseline_sessions_per_hour,
            attack.baseline_storage_ops_per_hour,
            session_id_start=attack.session_id_start)
        n = len(whole)
        for cuts in ([0, n], [0, 1, n], [0, n // 3, n // 2, n - 1, n]):
            slices = [attack.episode.generate_sessions(
                rng_of(), attack.baseline_sessions_per_hour,
                attack.baseline_storage_ops_per_hour,
                session_id_start=attack.session_id_start,
                session_range=(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
            assert scripts_of(ScriptTable.concat(slices)) == scripts_of(whole)

    def test_single_member_materialization_is_stable(self, plan):
        index = next(i for i, user in enumerate(plan.users) if user.sessions)
        a = scripts_of(materialize_member(plan, index))
        b = scripts_of(materialize_member(plan, index))
        assert [s.session_id for s in a] == [s.session_id for s in b]
        for x, y in zip(a, b):
            assert events_of(x) == events_of(y)

    def test_attack_slices_union_equals_whole_episode(self, plan):
        attack_members = [len(plan.users) + i for i in range(len(plan.attacks))]
        by_slice = []
        for member in attack_members:
            by_slice.extend(scripts_of(materialize_member(plan, member)))
        # Whole-episode reference: one slice covering everything.
        episodes = {p.episode.attacker_user_id: p for p in plan.attacks}
        reference = []
        for plan_slice in episodes.values():
            reference.extend(scripts_of(plan_slice.episode.generate_sessions(
                member_rng(plan.config.seed,
                           plan_slice.episode.attacker_user_id),
                plan_slice.baseline_sessions_per_hour,
                plan_slice.baseline_storage_ops_per_hour,
                session_id_start=plan_slice.session_id_start)))
        by_slice.sort(key=lambda s: s.session_id)
        reference.sort(key=lambda s: s.session_id)
        assert [s.session_id for s in by_slice] == \
            [s.session_id for s in reference]
        for mine, ref in zip(by_slice, reference):
            assert mine.start == ref.start
            assert events_of(mine) == events_of(ref)

    def test_node_ids_live_in_per_user_namespaces(self, plan):
        scripts = scripts_of(materialize_members(plan))
        for script in scripts:
            if script.caused_by_attack:
                continue
            for event in events_of(script):
                if event.node_id:
                    assert event.node_id >> 24 == script.user_id


class TestSharedPopularPool:
    def test_cross_user_dedup_survives_per_user_streams(self):
        # Needs enough users/days to realise a meaningful number of
        # transfers (the module-scoped tiny config can realise none).
        config = WorkloadConfig.scaled(users=200, days=3, seed=19)
        plan = SyntheticTraceGenerator(config).plan()
        scripts = scripts_of(materialize_members(plan))
        owners: dict[str, set[int]] = {}
        for script in scripts:
            if script.caused_by_attack:
                continue
            for event in events_of(script):
                if event.content_hash:
                    owners.setdefault(event.content_hash,
                                      set()).add(script.user_id)
        shared = [h for h, users in owners.items() if len(users) > 1]
        assert shared, "no content hash is shared across users"

    def test_pool_sampling_is_zipf_weighted(self):
        rng = np.random.default_rng(3)
        model = FileModel(rng)
        pool = PopularContentPool.build(model, 64)
        picks = [pool.sample(u) for u in rng.random(4000)]
        counts = {}
        for entry in picks:
            counts[entry[0]] = counts.get(entry[0], 0) + 1
        first = counts.get(pool.entries[0][0], 0)
        assert first > 4000 / 64  # the head entry beats the uniform share

    def test_namespaced_hashes_never_collide(self):
        a = FileModel(np.random.default_rng(1), duplicate_fraction=0.0,
                      hash_namespace="u1-")
        b = FileModel(np.random.default_rng(1), duplicate_fraction=0.0,
                      hash_namespace="u2-")
        hashes_a = {a.sample_new_file()[0] for _ in range(50)}
        hashes_b = {b.sample_new_file()[0] for _ in range(50)}
        assert hashes_a.isdisjoint(hashes_b)
