"""Unit tests of the fault spec/compile/decision machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.errors import (
    BackendError,
    FaultError,
    ServiceUnavailable,
    ShardReadOnly,
    StorageNodeDown,
    is_retryable_kind,
)
from repro.faults.mitigation import MitigationPolicy, default_mitigations
from repro.faults.runtime import (
    _LOSSY_TAG,
    FAILOVER,
    FaultSchedule,
    _float_bits,
    _mix64,
    compile_plan,
    content_node,
    request_disposition,
)
from repro.faults.spec import (
    AuthOutage,
    DegradedProcess,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
    default_fault_plan,
    flapping,
)


class TestErrorTaxonomy:
    def test_retryable_split(self):
        assert ServiceUnavailable.retryable
        assert StorageNodeDown.retryable
        assert not ShardReadOnly.retryable

    def test_error_kinds(self):
        assert is_retryable_kind("service_unavailable")
        assert is_retryable_kind("storage_node_down")
        assert not is_retryable_kind("shard_read_only")
        assert not is_retryable_kind("")
        assert not is_retryable_kind("anything_else")

    def test_fault_errors_are_backend_errors(self):
        for cls in (ServiceUnavailable, ShardReadOnly, StorageNodeDown):
            assert issubclass(cls, FaultError)
            assert issubclass(cls, BackendError)


class TestConstructionTimeValidation:
    """Bad specs die where the literal was written, never inside compile."""

    def test_inverted_or_empty_windows_raise_at_construction(self):
        with pytest.raises(ValueError, match="end"):
            LossyLink(start=10.0, end=5.0)
        with pytest.raises(ValueError, match="end"):
            ReadOnlyShard(start=0.0, end=0.0)
        with pytest.raises(ValueError, match="end"):
            AuthOutage(start=3.0, end=2.0)

    def test_bad_rates_and_targets_raise_at_construction(self):
        with pytest.raises(ValueError, match="failure_rate"):
            LossyLink(start=0.0, end=1.0, failure_rate=-0.1)
        with pytest.raises(ValueError, match="inflation"):
            DegradedProcess(start=0.0, end=1.0, inflation=0.5)
        with pytest.raises(ValueError, match="process_index"):
            DegradedProcess(start=0.0, end=1.0, process_index=-1)
        with pytest.raises(ValueError, match="shard_id"):
            ReadOnlyShard(start=0.0, end=1.0, shard_id=-1)
        with pytest.raises(ValueError, match="node_index"):
            StorageNodeOutage(start=0.0, end=1.0, node_index=5, n_nodes=4)

    def test_plan_rejects_unknown_kind_at_construction(self):
        with pytest.raises(TypeError, match="unknown fault kind"):
            FaultPlan(faults=("not a fault",))

    def test_valid_specs_construct_fine(self):
        plan = FaultPlan(faults=(LossyLink(start=0.0, end=1.0),
                                 AuthOutage(start=1.0, end=2.0)))
        assert plan


class TestSpecValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            LossyLink(start=10.0, end=10.0).validate()

    def test_inflation_must_exceed_one(self):
        with pytest.raises(ValueError):
            DegradedProcess(start=0.0, end=1.0, inflation=1.0).validate()

    def test_failure_rate_bounds(self):
        with pytest.raises(ValueError):
            LossyLink(start=0.0, end=1.0, failure_rate=0.0).validate()

    def test_outage_needs_replicas(self):
        with pytest.raises(ValueError):
            StorageNodeOutage(start=0.0, end=1.0, n_nodes=1).validate()

    def test_plan_rejects_unknown_kinds(self):
        with pytest.raises(TypeError):
            FaultPlan(faults=("not a fault",)).validate()

    def test_plan_checks_hardware_ranges(self):
        plan = FaultPlan(faults=(
            DegradedProcess(start=0.0, end=1.0, process_index=99),))
        plan.validate()  # fine without a fleet size
        with pytest.raises(ValueError):
            plan.validate(n_processes=24)
        plan = FaultPlan(faults=(
            ReadOnlyShard(start=0.0, end=1.0, shard_id=10),))
        with pytest.raises(ValueError):
            plan.validate(n_shards=10)

    def test_empty_plan_is_falsy_and_inactive(self):
        plan = FaultPlan()
        assert not plan
        schedule = compile_plan(plan)
        assert not schedule.active
        lo, hi = schedule.envelope
        assert lo > hi  # nothing is ever inside the envelope

    def test_flapping_expands_to_duty_cycles(self):
        windows = flapping(0.0, 100.0, period=40.0, duty=0.25,
                           process_index=3, inflation=2.0)
        assert [(w.start, w.end) for w in windows] == \
            [(0.0, 10.0), (40.0, 50.0), (80.0, 90.0)]
        assert all(w.process_index == 3 and w.inflation == 2.0
                   for w in windows)


class TestCompileAndDecide:
    def test_compile_buckets_by_kind(self):
        plan = default_fault_plan(1000.0, 4000.0, seed=5)
        schedule = compile_plan(plan, n_processes=24, n_shards=10)
        assert schedule.seed == 5
        assert schedule.active
        assert 0 in schedule.degraded
        assert schedule.lossy and schedule.read_only
        assert schedule.storage_down and schedule.auth
        lo, hi = schedule.envelope
        assert lo == min(f.start for f in plan.faults)
        assert hi == max(f.end for f in plan.faults)

    def test_content_node_is_process_independent(self):
        # crc32, not hash(): the same content maps to the same node in
        # every process, every run.
        assert content_node("abc123", 4) == content_node("abc123", 4)
        assert 0 <= content_node("anything", 3) < 3

    def test_lossy_decision_is_deterministic_and_rate_shaped(self):
        schedule = compile_plan(FaultPlan(
            faults=(LossyLink(0.0, 1e6, failure_rate=0.3),), seed=9))
        outcomes = [
            schedule.attempt_outcome(float(t), t, 1, 2, False, "", 0, 0)
            for t in range(4000)
        ]
        repeat = [
            schedule.attempt_outcome(float(t), t, 1, 2, False, "", 0, 0)
            for t in range(4000)
        ]
        assert outcomes == repeat
        rate = sum(o == "service_unavailable" for o in outcomes) / 4000
        assert 0.25 < rate < 0.35

    def test_read_only_hits_mutations_on_its_shard_only(self):
        schedule = compile_plan(FaultPlan(
            faults=(ReadOnlyShard(0.0, 100.0, shard_id=3),)))
        hit = schedule.attempt_outcome(50.0, 0, 1, 2, True, "", 3, 0)
        assert hit == "shard_read_only"
        assert schedule.attempt_outcome(50.0, 0, 1, 2, True, "", 4, 0) is None
        assert schedule.attempt_outcome(50.0, 0, 1, 2, False, "", 3, 0) is None
        assert schedule.attempt_outcome(150.0, 0, 1, 2, True, "", 3, 0) is None

    def test_storage_outage_hits_placed_transfers(self):
        n_nodes = 3
        schedule = compile_plan(FaultPlan(faults=(
            StorageNodeOutage(0.0, 100.0, node_index=1, n_nodes=n_nodes),)))
        on_node = next(h for h in (f"hash{i}" for i in range(50))
                       if content_node(h, n_nodes) == 1)
        off_node = next(h for h in (f"hash{i}" for i in range(50))
                        if content_node(h, n_nodes) != 1)
        assert schedule.attempt_outcome(
            50.0, 0, 1, 2, False, on_node, 0, 0) == "storage_node_down"
        assert schedule.attempt_outcome(
            50.0, 0, 1, 2, False, off_node, 0, 0) is None
        # Non-transfers carry no hash and never hit storage outages.
        assert schedule.attempt_outcome(50.0, 0, 1, 2, False, "", 0, 0) is None

    def test_failover_outage_reports_failover(self):
        schedule = compile_plan(FaultPlan(faults=(
            StorageNodeOutage(0.0, 100.0, node_index=0, n_nodes=2,
                              failover=True),)))
        on_node = next(h for h in (f"h{i}" for i in range(50))
                       if content_node(h, 2) == 0)
        assert schedule.attempt_outcome(
            50.0, 0, 1, 2, False, on_node, 0, 0) == FAILOVER

    def test_auth_denied_window(self):
        schedule = compile_plan(FaultPlan(
            faults=(AuthOutage(10.0, 20.0),)))
        assert schedule.auth_outage(
            np.array([10.0, 19.9, 20.0, 9.9])).tolist() == [
                True, True, False, False]


# Window bounds and timestamps come from one small pool so rows land
# exactly on ``start``/``end``; ``-0.0`` and ``0.0`` differ in their bits.
_instants = st.sampled_from([-0.0, 0.0, 1.0, 2.5, 10.0, 10.000000000000002,
                             99.0, 100.0]) | st.floats(-5.0, 105.0)
_ids = st.integers(0, 2 ** 63 - 1)
_window = st.tuples(_instants, _instants).map(sorted)
_rates = st.sampled_from([0.0, 1.0, 5e-324, 2.0 ** -64, 2.0 ** -65, 1e-19,
                          0.5]) | st.floats(0.0, 1.0)
_hash_categories = st.lists(st.sampled_from(["", "h0", "h1", "h2"])
                            | st.text(max_size=6), min_size=1, max_size=4)


@st.composite
def _schedules(draw):
    lossy = draw(st.lists(st.tuples(_window, _rates), max_size=3))
    read_only = draw(st.lists(st.tuples(_window, st.integers(0, 3)),
                              max_size=2))
    storage_down = draw(st.lists(
        st.tuples(_window, st.integers(1, 4), st.booleans(),
                  st.integers(0, 3)), max_size=2))
    return FaultSchedule(
        seed=draw(st.integers(-2 ** 64, 2 ** 65)),
        lossy=tuple(sorted((w[0], w[1], rate) for w, rate in lossy)),
        read_only=tuple(sorted((w[0], w[1], shard)
                               for w, shard in read_only)),
        storage_down=tuple(sorted(
            (w[0], w[1], node % n_nodes, n_nodes, failover)
            for w, n_nodes, failover, node in storage_down)))


@st.composite
def _requests(draw):
    categories = draw(_hash_categories)
    rows = draw(st.lists(st.tuples(
        _instants, _ids, _ids, st.booleans(),
        st.integers(-1, len(categories) - 1), st.integers(0, 3)),
        min_size=1, max_size=30))
    return categories, rows


def _mask_and_scalar(schedule, categories, rows):
    ts, users, sessions, mutating, codes, shards = (
        np.array(column) for column in zip(*rows))
    mask = schedule.first_attempt_faulted(
        ts.astype(np.float64), users.astype(np.int64),
        sessions.astype(np.int64), mutating.astype(bool), codes,
        categories, shards)
    scalar = [
        schedule.attempt_outcome(
            t, _float_bits(t), user, session, mut,
            categories[code] if code >= 0 else "", shard, 0) is not None
        for t, user, session, mut, code, shard in rows]
    return mask.tolist(), scalar


class TestFirstAttemptMask:
    """``FaultSchedule.first_attempt_faulted`` must equal the scalar
    ``attempt_outcome(..., 0) is not None`` row for row: the offline
    simulator re-resolves only the rows it flags."""

    @settings(max_examples=200, deadline=None)
    @given(_schedules(), _requests())
    def test_mask_equals_scalar_decision(self, schedule, requests):
        categories, rows = requests
        mask, scalar = _mask_and_scalar(schedule, categories, rows)
        assert mask == scalar

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2 ** 64, 2 ** 65), _ids, _ids, _instants,
           st.integers(0, 2))
    def test_lossy_threshold_is_exact_at_the_draw(self, seed, user, session,
                                                  ts, nudge):
        # A rate whose threshold lands on (or one ulp either side of) the
        # row's own draw: the integer compare must agree with the scalar
        # float compare exactly there.
        draw = _mix64(seed, _LOSSY_TAG, user, session, _float_bits(ts), 0)
        rate = float(draw) / 2.0 ** 64
        rate = (np.nextafter(rate, 0.0), rate, np.nextafter(rate, 1.0))[nudge]
        schedule = FaultSchedule(seed=seed,
                                 lossy=((-10.0, 200.0, float(rate)),))
        mask, scalar = _mask_and_scalar(
            schedule, [""], [(ts, user, session, False, -1, 0)])
        assert mask == scalar

    def test_lossy_threshold_between_integers(self):
        # Below 2**52 ``rate * 2**64`` can fall between two integers; a draw
        # just under it hits, which only a ceil (not floor) threshold keeps.
        draw, user = next((d, u) for d, u in (
            (_mix64(3, _LOSSY_TAG, u, 7, _float_bits(5.0), 0), u)
            for u in range(1 << 16)) if d < 1 << 52)
        rate = (draw + 0.5) / 2.0 ** 64
        assert rate * 2.0 ** 64 == draw + 0.5
        schedule = FaultSchedule(seed=3, lossy=((0.0, 10.0, rate),))
        mask, scalar = _mask_and_scalar(
            schedule, [""], [(5.0, user, 7, False, -1, 0)])
        assert mask == scalar == [True]

    def test_empty_columns(self):
        schedule = compile_plan(default_fault_plan(0.0, 100.0, seed=1))
        empty = np.array([], dtype=np.int64)
        mask = schedule.first_attempt_faulted(
            empty.astype(np.float64), empty, empty, empty.astype(bool),
            empty, [], empty)
        assert mask.dtype == bool and len(mask) == 0


class TestDisposition:
    def test_retry_escapes_a_bounded_window(self):
        # The fault window closes before the retry backoff lands, so the
        # retried attempt is re-evaluated outside the window and succeeds.
        schedule = compile_plan(FaultPlan(
            faults=(LossyLink(0.0, 100.0, failure_rate=1.0),)))
        policy = MitigationPolicy("retry", "retry", max_retries=1,
                                  backoff_base=10.0)
        error_kind, retries, backoff, failover = request_disposition(
            schedule, policy, 99.0, 1, 2, False, "", 0)
        assert (error_kind, retries, backoff, failover) == ("", 1, 10.0, False)

    def test_retry_gives_up_inside_a_long_window(self):
        schedule = compile_plan(FaultPlan(
            faults=(LossyLink(0.0, 1e9, failure_rate=1.0),)))
        policy = MitigationPolicy("retry", "retry", max_retries=3,
                                  backoff_base=1.0, backoff_factor=2.0)
        error_kind, retries, backoff, _ = request_disposition(
            schedule, policy, 50.0, 1, 2, False, "", 0)
        assert error_kind == "service_unavailable"
        assert retries == 3
        assert backoff == 1.0 + 2.0 + 4.0

    def test_terminal_kinds_are_never_retried(self):
        schedule = compile_plan(FaultPlan(
            faults=(ReadOnlyShard(0.0, 10.0, shard_id=0),)))
        policy = MitigationPolicy("retry", "retry", max_retries=3,
                                  backoff_base=100.0)
        error_kind, retries, backoff, _ = request_disposition(
            schedule, policy, 5.0, 1, 2, True, "", 0)
        # ShardReadOnly is terminal: retrying an operator-action fault
        # would just burn the budget, so the loop never starts.
        assert (error_kind, retries, backoff) == ("shard_read_only", 0, 0.0)


class TestMitigationPolicies:
    def test_default_set_shape(self):
        policies = default_mitigations()
        assert [(p.name, p.kind, p.max_retries) for p in policies] == [
            ("do-nothing", "none", 0), ("retry-1", "retry", 1),
            ("retry-3", "retry", 3)]
        for policy in policies:
            policy.validate()

    def test_retry_needs_budget(self):
        with pytest.raises(ValueError):
            MitigationPolicy("r", "retry", max_retries=0).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MitigationPolicy("x", "fix-it-all").validate()

    def test_backoff_accumulation(self):
        policy = MitigationPolicy("r", "retry", max_retries=3,
                                  backoff_base=1.0, backoff_factor=2.0)
        assert policy.backoff(0) == 1.0
        assert policy.backoff(2) == 4.0
        assert policy.total_backoff(3) == 7.0
