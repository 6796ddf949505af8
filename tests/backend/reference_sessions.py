"""Reference walk of a replay shard's sessions, kept as the column passes'
oracle.

A replay shard builds its session rows and its notification fan-out in
column passes after dispatch (``ReplayShard._session_rows``,
``SessionRegistry.fan_out``).  The walk here computes both the way the
per-record session path did: it replays the shard's records in timeline
order and, at each open, event and close, does what ``open_session``,
``handle_event``, ``close_session``, the address-keyed session registry,
each process's per-user session count and the publish/subscribe bus did —
appending the session rows as 9-field tuples and counting pushes.

Its inputs are the loop's outcomes only: the process each session was
opened on, whether it was established, and the ordinals of the successful
mutations.  :func:`recording_dispatch` notes the first two on the shard.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.backend.replay_shard import ReplayShard
from repro.trace.dataset import _SESSION_SPEC, ColumnBlock, _pack
from repro.trace.records import (
    DATA_MANAGEMENT_OPERATIONS,
    ApiOperation,
    SessionEvent,
)

__all__ = ["assert_block_equals", "assert_shard_equals_walk",
           "recording_dispatch", "reference_walk"]

_OPEN, _CLOSE = ReplayShard._OPEN, ReplayShard._CLOSE
_OPERATIONS = list(ApiOperation)


@contextmanager
def recording_dispatch():
    """Note each replay shard's dispatch outcome as ``shard.loop``:
    ``(assigned, established)`` per script first."""
    dispatch = ReplayShard._dispatch

    def recorded(self, *args, **kwargs):
        self.loop = dispatch(self, *args, **kwargs)
        return self.loop

    with mock.patch.object(ReplayShard, "_dispatch", recorded):
        yield


class _Registry:
    """The address-keyed session registry: ``user -> session -> process``
    plus the user's session count per process."""

    def __init__(self) -> None:
        self.by_user: dict[int, dict[int, int]] = {}
        self.per_process: dict[int, dict[int, int]] = {}

    def register(self, user_id: int, session_id: int, process: int) -> None:
        sessions = self.by_user.get(user_id)
        if sessions is None:
            self.by_user[user_id] = {session_id: process}
            self.per_process[user_id] = {process: 1}
            return
        counts = self.per_process[user_id]
        previous = sessions.get(session_id)
        if previous is not None:  # a re-registered session moves
            counts[previous] -= 1
        sessions[session_id] = process
        counts[process] = counts.get(process, 0) + 1

    def unregister(self, user_id: int, session_id: int) -> None:
        sessions = self.by_user.get(user_id)
        if sessions is None:
            return
        process = sessions.pop(session_id, None)
        if process is None:
            return
        if sessions:
            self.per_process[user_id][process] -= 1
        else:
            del self.by_user[user_id]
            del self.per_process[user_id]

    def fellow_sessions(self, user_id: int, session_id: int,
                        process: int) -> tuple[int, int]:
        sessions = self.by_user.get(user_id)
        if sessions is None:
            return 0, 0
        own = sessions.get(session_id)
        others = len(sessions) - (own is not None)
        if not others:
            return 0, 0
        local = self.per_process[user_id].get(process, 0) - (own == process)
        return local, others - local


def reference_walk(shard: ReplayShard, table, assigned: list[int],
                   established: list[bool], mutations: list[int]):
    """Session rows and fan-out counters of ``shard``'s replay of
    ``table``, walked record by record.

    Returns ``(rows, bus, pushed)``: the session rows as
    ``_SESSION_SPEC`` tuples in emission order, the bus's ``published``,
    ``deliveries``, ``pushes`` and ``short_circuits``, and each process's
    notification pushes.
    """
    order, _, ts_col, kind_col, script_col, _ = \
        ReplayShard._build_timeline(table)
    addresses = [process.address for process in shard.processes]
    n_processes = len(addresses)
    users = table.user_id.tolist()
    sessions = table.session_id.tolist()
    attack = table.caused_by_attack.tolist()
    operations = table.operation.tolist()
    n = len(table)
    mutated = set(mutations)
    registry = _Registry()
    # Per script, its session's handle: [script, established at, storage
    # operations].  Per process: session id -> handle and user -> open
    # sessions (the per-process tables).
    handle_of: list[list | None] = [None] * n
    handles: list[dict[int, list]] = [{} for _ in addresses]
    user_sessions: list[dict[int, int]] = [{} for _ in addresses]
    is_open = [False] * n
    rows: list[tuple] = []
    bus = {"published": 0, "deliveries": 0, "pushes": 0,
           "short_circuits": 0}
    pushed = [0] * n_processes

    def row(index: int, timestamp: float, event: SessionEvent,
            length: float = -1.0, operations: int = 0) -> None:
        server, process = addresses[assigned[index]]
        rows.append((timestamp, server, process, users[index],
                     sessions[index], event, attack[index], length,
                     operations))

    for j in order:
        index = script_col[j]
        p = assigned[index]
        user_id, session_id = users[index], sessions[index]
        if kind_col[j] == _OPEN:
            row(index, ts_col[j], SessionEvent.AUTH_REQUEST)
            if not established[index]:
                row(index, ts_col[j], SessionEvent.AUTH_FAIL)
                continue
            row(index, ts_col[j], SessionEvent.AUTH_OK)
            handle_of[index] = handles[p][session_id] = [index, ts_col[j], 0]
            user_sessions[p][user_id] = user_sessions[p].get(user_id, 0) + 1
            registry.register(user_id, session_id, p)
            row(index, ts_col[j], SessionEvent.CONNECT)
            is_open[index] = True
        elif kind_col[j] != _CLOSE:
            if not is_open[index]:
                continue
            if _OPERATIONS[operations[j - n]] in DATA_MANAGEMENT_OPERATIONS:
                handle_of[index][2] += 1
            if j not in mutated:
                continue
            local, remote = registry.fellow_sessions(user_id, session_id, p)
            if local:
                bus["short_circuits"] += local
                bus["pushes"] += local
            if remote:
                bus["published"] += 1
                for q in range(n_processes):
                    if q == p:
                        continue
                    bus["deliveries"] += 1
                    count = user_sessions[q].get(user_id, 0)
                    pushed[q] += count
                    bus["pushes"] += count
        elif is_open[index]:
            is_open[index] = False
            handle = handles[p].pop(session_id, None)
            if handle is None:
                continue
            opened, established_at, storage_operations = handle
            owner = users[opened]
            remaining = user_sessions[p].get(owner, 0) - 1
            if remaining > 0:
                user_sessions[p][owner] = remaining
            else:
                user_sessions[p].pop(owner, None)
            registry.unregister(owner, session_id)
            # The row's request is its handle's open.
            row(opened, ts_col[j], SessionEvent.DISCONNECT,
                max(0.0, ts_col[j] - established_at), storage_operations)
    return rows, bus, pushed


def assert_block_equals(block: ColumnBlock, reference: dict, label: str):
    """``block`` holds the packed ``reference`` columns, dtypes and
    categories included."""
    assert block.n == len(reference["timestamp"]), label
    stored = {**block.cols, **block.codes}
    assert set(stored) == set(reference), label
    for name, expected in reference.items():
        value = stored[name]
        if type(expected) is tuple:
            assert type(value) is tuple, (label, name)
            assert value[0].dtype == expected[0].dtype, (label, name)
            assert np.array_equal(value[0], expected[0]), (label, name)
            assert value[1] == expected[1], (label, name)
        else:
            assert value.dtype == expected.dtype, (label, name)
            assert np.array_equal(value, expected), (label, name)


def assert_shard_equals_walk(shard: ReplayShard, table, outcome) -> list:
    """The shard's session block, bus counters and per-process pushes
    equal the reference walk's; returns the walk's session rows.  The
    shard must have run under :func:`recording_dispatch`."""
    assigned, established = shard.loop[:2]
    rows, bus, pushed = reference_walk(shard, table, assigned, established,
                                       shard.registry.mutations)
    assert_block_equals(outcome.sessions, _pack(_SESSION_SPEC, rows),
                        "sessions")
    assert {name: getattr(shard.bus, name) for name in bus} == bus
    assert [outcome.process_counters[index].notifications_pushed
            for index in shard._address_indices] == pushed
    return rows
