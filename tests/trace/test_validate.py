"""Trace invariant validation (``--validate``) tests."""

from __future__ import annotations

import dataclasses

from repro.trace.dataset import TraceDataset
from repro.trace.records import SessionEvent
from repro.trace.validate import _session_user_map, validate_dataset
from tests.conftest import make_rpc, make_session, make_storage


def _clean_dataset(storage=(), rpc=(), sessions=()) -> TraceDataset:
    """A clean hand-built trace; the given records follow its own."""
    return TraceDataset(
        storage=[make_storage(timestamp=1.0, session_id=1, user_id=1),
                 make_storage(timestamp=2.0, session_id=1, user_id=1),
                 *storage],
        rpc=[make_rpc(timestamp=1.5, session_id=1, user_id=1), *rpc],
        sessions=[make_session(timestamp=0.0, session_id=1, user_id=1),
                  make_session(timestamp=5.0, session_id=2, user_id=2),
                  make_session(timestamp=9.0, session_id=1, user_id=1,
                               event=SessionEvent.DISCONNECT,
                               session_length=9.0),
                  *sessions])


class TestCleanTraces:
    def test_hand_built_dataset_is_clean(self):
        assert validate_dataset(_clean_dataset()) == []

    def test_empty_dataset_is_clean(self, empty_dataset):
        assert validate_dataset(empty_dataset) == []

    def test_replayed_dataset_is_clean(self, simulated_dataset):
        assert validate_dataset(simulated_dataset) == []

    def test_generated_dataset_is_clean(self, dataset_without_rpc):
        assert validate_dataset(dataset_without_rpc) == []

    def test_system_sentinel_session_is_exempt(self):
        # Uploadjob GC probes carry session_id 0 and no client session.
        dataset = _clean_dataset(rpc=[make_rpc(timestamp=6.0, session_id=0,
                                               user_id=7, api_operation=None)])
        assert validate_dataset(dataset) == []


class TestMonotonicity:
    def test_out_of_order_timestamps_flagged(self):
        dataset = _clean_dataset(
            storage=[make_storage(timestamp=0.5, session_id=1, user_id=1)])
        violations = validate_dataset(dataset)
        assert any("storage: timestamps not monotonic" in v
                   for v in violations)


class TestReferentialIntegrity:
    def test_unknown_session_id_flagged(self):
        dataset = _clean_dataset(
            rpc=[make_rpc(timestamp=6.0, session_id=99, user_id=1)])
        violations = validate_dataset(dataset)
        assert any("rpc" in v and "absent from the session stream" in v
                   for v in violations)

    def test_user_mismatch_flagged(self):
        dataset = _clean_dataset(
            storage=[make_storage(timestamp=6.0, session_id=1, user_id=42)])
        violations = validate_dataset(dataset)
        assert any("storage" in v and "disagree" in v for v in violations)

    def test_ambiguous_session_user_flagged(self):
        dataset = _clean_dataset(
            sessions=[make_session(timestamp=6.0, session_id=1, user_id=3)])
        violations = validate_dataset(dataset)
        assert any("multiple user_ids" in v for v in violations)

    def test_ambiguous_session_names_smallest_culprit(self):
        # Session 7 is carried by users 3 and 4, session 2 by users 2 and 9.
        dataset = _clean_dataset(sessions=[
            make_session(timestamp=6.0, session_id=7, user_id=4),
            make_session(timestamp=7.0, session_id=7, user_id=3),
            make_session(timestamp=8.0, session_id=2, user_id=9)])
        violations: list[str] = []
        assert _session_user_map(dataset, violations) is None
        assert violations == [
            "sessions: session_id 2 maps to multiple user_ids"]

    def test_unambiguous_session_map(self):
        dataset = _clean_dataset(
            sessions=[make_session(timestamp=9.5, session_id=2, user_id=2)])
        violations: list[str] = []
        assert _session_user_map(dataset, violations) == {1: 1, 2: 2}
        assert violations == []


class TestFaultColumns:
    def test_unknown_error_kind_flagged(self):
        bogus = dataclasses.replace(
            make_storage(timestamp=6.0, session_id=1, user_id=1),
            error_kind="made-up-error")
        dataset = _clean_dataset(storage=[bogus])
        violations = validate_dataset(dataset)
        assert any("storage.error_kind" in v and "made-up-error" in v
                   for v in violations)

    def test_known_error_kind_is_clean(self):
        from repro.backend.errors import ERROR_KINDS

        kind = sorted(ERROR_KINDS)[0]
        dataset = _clean_dataset(storage=[dataclasses.replace(
            make_storage(timestamp=6.0, session_id=1, user_id=1),
            error_kind=kind, retries=2)])
        assert validate_dataset(dataset) == []

    def test_negative_retries_flagged(self):
        dataset = _clean_dataset(storage=[dataclasses.replace(
            make_storage(timestamp=6.0, session_id=1, user_id=1),
            retries=-1)])
        violations = validate_dataset(dataset)
        assert any("storage.retries: negative" in v for v in violations)
