"""The lockstep materializer against the scalar per-event oracle.

:mod:`tests.workload.scalar_reference` keeps the one-event-at-a-time
materializer the lockstep replaced.  Both draw the same member streams, so
on any plan, under any cut of the members into batches, they must build the
same :class:`~repro.workload.events.ScriptTable`, column for column
(factorised string columns included, categories in the same order).  The
property test draws the plans; the pinned plan below forces the rare
branches and checks that the oracle really took them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.workload import generator
from repro.workload.config import WorkloadConfig
from repro.workload.events import EVENT_FIELDS, SCRIPT_FIELDS
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from repro.workload.plan import SessionSpec
from tests.workload import scalar_reference
from tests.workload.scalar_reference import reference_members


def assert_same_table(table, reference) -> None:
    assert len(table) == len(reference)
    for name in SCRIPT_FIELDS + ("offsets",) + EVENT_FIELDS:
        got, want = getattr(table, name), getattr(reference, name)
        if isinstance(want, tuple):
            assert got[1] == want[1], name
            got, want = got[0], want[0]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@st.composite
def plans(draw):
    mix = draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    total = sum(mix)
    config = WorkloadConfig.scaled(
        users=draw(st.integers(10, 60)), days=draw(st.floats(1.0, 4.0)),
        seed=draw(st.integers(0, 2 ** 16)),
        occasional_fraction=mix[0] / total,
        upload_only_fraction=mix[1] / total,
        download_only_fraction=mix[2] / total,
        heavy_fraction=mix[3] / total,
        active_session_fraction=draw(st.floats(0.05, 0.6)),
        update_fraction=draw(st.floats(0.0, 0.45)),
        short_lived_file_fraction=draw(st.floats(0.0, 0.9)),
        attacks=())
    return SyntheticTraceGenerator(config).plan()


@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(plan=plans(), batch_draws=st.sampled_from([64, 700, 1 << 17]),
       data=st.data())
def test_lockstep_equals_scalar_oracle(plan, batch_draws, data):
    members = data.draw(st.lists(st.integers(0, plan.n_members - 1),
                                 unique=True, max_size=plan.n_members))
    with mock.patch.object(generator, "_BATCH_DRAWS", batch_draws):
        assert_same_table(materialize_members(plan, members or None),
                          reference_members(plan, members or None))


@pytest.fixture(scope="module")
def busy_plan():
    """Heavy users with week-long, operation-dense active sessions: big
    tables, long unsynced sets, volume deletes and churned pending uploads."""
    config = WorkloadConfig.scaled(
        users=12, days=7.0, seed=41, heavy_fraction=0.6,
        upload_only_fraction=0.3, occasional_fraction=0.05,
        download_only_fraction=0.05, udf_user_fraction=1.0,
        update_fraction=0.2, short_lived_file_fraction=0.5, attacks=())
    plan = SyntheticTraceGenerator(config).plan()
    session_id = iter(range(1, 10 ** 6))
    users = tuple(
        replace(user_plan, sessions=tuple(
            SessionSpec(session_id=next(session_id),
                        start=config.start_time + k * 6 * 3600.0,
                        length=5 * 24 * 3600.0, active=True,
                        auth_fails=False, n_ops=400)
            for k in range(3)))
        for user_plan in plan.users)
    return replace(plan, users=users)


def test_rare_branches_match(busy_plan):
    """The branches generated plans seldom reach: more than 48 live files,
    more than 96 unsynced files (the row-order sync pick), deleting a UDF
    volume that holds files, and popping removed pending uploads."""
    seen = Counter()
    table_cls = scalar_reference._FileTable
    pick_update, pick_unsynced = table_cls.pick_update, table_cls.pick_unsynced
    popleft = scalar_reference._PendingUploads.popleft
    drop = scalar_reference.ReferenceMaterializer._drop_file

    def update(self, now, u):
        seen["more than 48 files"] += self.n > 48
        return pick_update(self, now, u)

    def unsynced(self, now, u):
        seen["more than 96 unsynced"] += len(self.unsynced) > 96
        return pick_unsynced(self, now, u)

    def pop(self):
        queued = len(self._queue)
        node_id = popleft(self)
        seen["removed pending skipped"] += queued - len(self._queue) > 1
        return node_id

    def drop_file(self, state, node_id):
        seen["file of a deleted volume"] += not any(
            node_id in volume.file_ids for volume in state.volumes.values())
        return drop(self, state, node_id)

    with mock.patch.object(table_cls, "pick_update", update), \
            mock.patch.object(table_cls, "pick_unsynced", unsynced), \
            mock.patch.object(scalar_reference._PendingUploads, "popleft", pop), \
            mock.patch.object(scalar_reference.ReferenceMaterializer,
                              "_drop_file", drop_file):
        reference = reference_members(busy_plan)
    assert min(seen.values()) > 0 and len(seen) == 4, seen
    assert_same_table(materialize_members(busy_plan), reference)
