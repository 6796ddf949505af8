"""Tests for the end-to-end synthetic trace generator."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.trace.records import ApiOperation, NodeKind, SessionEvent
from repro.util.units import MB
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from tests.conftest import events_of, scripts_of


@pytest.fixture(scope="module")
def scripts(small_config_module):
    return scripts_of(materialize_members(
        SyntheticTraceGenerator(small_config_module).plan()))


@pytest.fixture(scope="module")
def small_config_module():
    return WorkloadConfig.scaled(users=300, days=4, seed=13)


class TestClientEvents:
    def test_scripts_sorted_by_start(self, scripts):
        starts = [s.start for s in scripts]
        assert starts == sorted(starts)

    def test_session_ids_are_unique(self, scripts):
        ids = [s.session_id for s in scripts]
        assert len(set(ids)) == len(ids)

    def test_events_fall_inside_their_session(self, scripts):
        for script in scripts:
            for event in events_of(script):
                assert script.start <= event.time <= script.end + 1e-6
                assert event.session_id == script.session_id
                assert event.user_id == script.user_id

    def test_event_times_are_monotonic_within_session(self, scripts):
        for script in scripts:
            times = [e.time for e in events_of(script)]
            assert times == sorted(times)

    def test_attack_scripts_present_and_flagged(self, scripts):
        attack_scripts = [s for s in scripts if s.caused_by_attack]
        assert attack_scripts
        attacker_ids = {s.user_id for s in attack_scripts}
        legit_ids = {s.user_id for s in scripts if not s.caused_by_attack}
        assert attacker_ids.isdisjoint(legit_ids)

    def test_uploads_carry_content_metadata(self, scripts):
        uploads = [e for s in scripts for e in events_of(s)
                   if e.operation is ApiOperation.UPLOAD]
        assert uploads
        for event in uploads:
            assert event.size_bytes > 0
            assert event.content_hash
            assert event.node_id > 0

    def test_downloads_reference_previously_known_files(self, scripts):
        # Downloads always reference a node id; sizes are positive.
        downloads = [e for s in scripts for e in events_of(s)
                     if e.operation is ApiOperation.DOWNLOAD]
        assert downloads
        assert all(e.node_id > 0 and e.size_bytes > 0 for e in downloads)

    def test_unlinked_nodes_are_not_operated_on_afterwards(self, scripts):
        per_node_ops: dict[int, list] = {}
        for script in scripts:
            if script.caused_by_attack:
                continue
            for event in events_of(script):
                if event.node_id:
                    per_node_ops.setdefault(event.node_id, []).append(event)
        violations = 0
        for events in per_node_ops.values():
            events.sort(key=lambda e: e.time)
            deleted_at = None
            for event in events:
                if deleted_at is not None and event.operation in (
                        ApiOperation.UPLOAD, ApiOperation.DOWNLOAD):
                    violations += 1
                if event.operation is ApiOperation.UNLINK:
                    deleted_at = event.time
        assert violations == 0

    def test_reproducibility(self, small_config_module):
        a = scripts_of(materialize_members(
            SyntheticTraceGenerator(small_config_module).plan()))
        b = scripts_of(materialize_members(
            SyntheticTraceGenerator(small_config_module).plan()))
        assert len(a) == len(b)
        assert [(s.user_id, s.start, s.n_events) for s in a[:50]] == \
               [(s.user_id, s.start, s.n_events) for s in b[:50]]


class TestGenerateDataset:
    def test_dataset_has_all_streams(self, simulated_dataset):
        assert simulated_dataset.storage
        assert simulated_dataset.sessions

    def test_session_records_are_balanced(self, simulated_dataset):
        events = Counter(r.event for r in simulated_dataset.sessions)
        assert events[SessionEvent.CONNECT] == events[SessionEvent.DISCONNECT]
        assert events[SessionEvent.AUTH_REQUEST] >= events[SessionEvent.CONNECT]
        assert events[SessionEvent.AUTH_FAIL] > 0

    def test_disconnects_carry_session_metadata(self, simulated_dataset):
        for record in [r for r in simulated_dataset.sessions
                       if r.event is SessionEvent.DISCONNECT]:
            assert record.session_length >= 0
            assert record.storage_operations >= 0

    def test_workload_shape_headlines(self, simulated_dataset):
        legit = simulated_dataset.without_attack_traffic()
        uploads = [r for r in legit.storage
                   if r.operation is ApiOperation.UPLOAD]
        sizes = np.asarray([r.size_bytes for r in uploads if not r.is_update])
        assert np.mean(sizes < 1 * MB) > 0.7          # small files dominate counts
        update_share = sum(r.is_update for r in uploads) / len(uploads)
        assert 0.05 < update_share < 0.25              # ~10 % updates
        operations = Counter(r.operation for r in legit.storage)
        transfers = operations[ApiOperation.UPLOAD] + operations[ApiOperation.DOWNLOAD]
        assert transfers > 0.35 * sum(operations.values())

    def test_directory_nodes_exist(self, simulated_dataset):
        kinds = Counter(r.node_kind for r in simulated_dataset.storage
                        if r.node_id)
        assert kinds[NodeKind.DIRECTORY] > 0
        assert kinds[NodeKind.FILE] > kinds[NodeKind.DIRECTORY]


class TestBatchedMemberRng:
    """The vectorised member-stream derivation is bit-identical to NumPy's
    scalar ``SeedSequence`` spawning (the contract ``MemberRngBatch`` and
    the fused shard workers rely on)."""

    @pytest.mark.parametrize("seed", [0, 1, 13, 2014, 2**31 - 1,
                                      2**64 + 12345, 2**96 + 7])
    def test_seeding_words_match_seed_sequence(self, seed):
        from repro.workload.generator import (_SPAWN_NAMESPACE,
                                              _batched_member_words)
        user_ids = [0, 1, 2, 17, 999, 2**20, 2**32 - 1]
        words = _batched_member_words(seed, user_ids)
        for i, user_id in enumerate(user_ids):
            expected = np.random.SeedSequence(
                entropy=seed,
                spawn_key=(_SPAWN_NAMESPACE, user_id),
            ).generate_state(4, np.uint64)
            assert np.array_equal(words[i], expected), (seed, user_id)

    def test_batch_rng_draws_match_member_rng(self):
        from repro.workload.generator import MemberRngBatch, member_rng
        seed, user_ids = 2014, [3, 44, 555, 6666]
        batch = MemberRngBatch(seed, user_ids)
        for user_id in user_ids:
            batched = batch.rng(user_id)
            scalar = member_rng(seed, user_id)
            assert np.array_equal(batched.integers(0, 2**63, size=64),
                                  scalar.integers(0, 2**63, size=64))
            assert np.array_equal(batched.random(size=32),
                                  scalar.random(size=32))

    def test_spawned_children_match(self):
        # RngPool.spawn and the attack memo derive children by rebuilding a
        # SeedSequence from the member sequence's ``entropy``/``spawn_key``;
        # the precomputed shim must preserve that lineage.
        from repro.workload.generator import MemberRngBatch, member_rng
        batched = MemberRngBatch(7, [42]).rng(42).bit_generator.seed_seq
        scalar = member_rng(7, 42).bit_generator.seed_seq
        assert batched.entropy == scalar.entropy
        assert tuple(batched.spawn_key) == tuple(scalar.spawn_key)
        child_a = np.random.SeedSequence(
            entropy=batched.entropy,
            spawn_key=tuple(batched.spawn_key) + (3,))
        child_b = np.random.SeedSequence(
            entropy=scalar.entropy,
            spawn_key=tuple(scalar.spawn_key) + (3,))
        assert np.array_equal(child_a.generate_state(4, np.uint64),
                              child_b.generate_state(4, np.uint64))

    def test_out_of_range_ids_fall_back_to_scalar_path(self):
        from repro.workload.generator import MemberRngBatch, member_rng
        batch = MemberRngBatch(11, [5, 2**33])
        for user_id in (5, 2**33):
            assert np.array_equal(batch.rng(user_id).random(size=16),
                                  member_rng(11, user_id).random(size=16))
