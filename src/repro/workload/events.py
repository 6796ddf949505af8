"""Client events: the interface between the workload and the back-end.

The generator produces the client actions desktop clients perform (open/
close sessions, upload, download, make, unlink, ...).  The back-end
simulator replays them and turns them into trace records enriched with
server placement, RPC decomposition and service times.

The one representation is :class:`ScriptTable`: the session scripts of a
whole replay shard as typed NumPy columns.  A script is one client session
(``user_id``, ``session_id``, ``start``, ``end``, ``caused_by_attack``,
``auth_failed``); its events are the rows ``offsets[i]:offsets[i + 1]`` of
the event columns (:data:`EVENT_FIELDS`).  Enum fields hold the trace's
integer codes (:data:`~repro.trace.dataset.OPERATION_CODE`,
:data:`~repro.trace.dataset.VOLUME_TYPE_CODE`,
:data:`~repro.trace.dataset.NODE_KIND_CODE`) and string fields are
factorised ``(int32 codes, categories)`` pairs, the stored form of a
:class:`~repro.trace.dataset.ColumnBlock`.  The materializer and the
attack episodes build their tables from arrays (:class:`ScriptRows`
assembles one from row tuples), and a replay shard reads the columns
directly (see
:meth:`repro.backend.replay_shard.ReplayShard._build_timeline`), so no
per-session or per-event object is built.
"""

from __future__ import annotations

import numpy as np

from repro.trace.dataset import _take, concat_stored, factorise

__all__ = ["EVENT_FIELDS", "SCRIPT_FIELDS", "ScriptRows", "ScriptTable"]


#: Per-script columns of a :class:`ScriptTable` and their dtypes.
SCRIPT_FIELDS = ("user_id", "session_id", "start", "end", "caused_by_attack",
                 "auth_failed")
_SCRIPT_DTYPES = (np.int64, np.int64, np.float64, np.float64, np.bool_,
                  np.bool_)

#: Per-event columns of a :class:`ScriptTable`, in dispatch-row order, and
#: their dtypes (``object``: factorised strings).
EVENT_FIELDS = ("times", "operation", "node_id", "volume_id", "volume_type",
                "node_kind", "size_bytes", "content_hash", "extension",
                "is_update")
_EVENT_DTYPES = (np.float64, np.int16, np.int64, np.int64, np.int16,
                 np.int16, np.int64, object, object, np.bool_)


def ranges(starts: np.ndarray, lengths: np.ndarray,
           stride: int = 1) -> np.ndarray:
    """The concatenated ``starts[i] + stride * arange(lengths[i])``."""
    counts = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return (np.repeat(np.asarray(starts, dtype=np.int64) - stride * offsets,
                      counts)
            + stride * np.arange(int(counts.sum())))


def _typed(values, dtype):
    """One column's stored form from a sequence of its values."""
    if dtype is object:
        return factorise(values)
    return np.fromiter(values, dtype=dtype, count=len(values))


class ScriptTable:
    """The session scripts of one replay shard as typed columns.

    Script ``i`` owns the event rows ``offsets[i]:offsets[i + 1]``, in
    chronological order.  A failed authentication never establishes a
    session, so its script carries no events; a cold session carries only
    maintenance polls.  The table is immutable by convention: every
    operation returns a new table.
    """

    __slots__ = SCRIPT_FIELDS + ("offsets",) + EVENT_FIELDS

    def __init__(self, scripts: dict, counts: np.ndarray, events: dict):
        """``scripts`` and ``events`` map every :data:`SCRIPT_FIELDS` and
        :data:`EVENT_FIELDS` name to its stored column; ``counts`` holds
        each script's number of events."""
        for name in SCRIPT_FIELDS:
            setattr(self, name, scripts[name])
        for name in EVENT_FIELDS:
            setattr(self, name, events[name])
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])

    @classmethod
    def empty(cls) -> "ScriptTable":
        """A table without scripts."""
        return ScriptRows().build()

    def __len__(self) -> int:
        return len(self.user_id)

    @property
    def n_events(self) -> int:
        """Events of all scripts."""
        return int(self.offsets[-1])

    @property
    def counts(self) -> np.ndarray:
        """Each script's number of events."""
        return np.diff(self.offsets)

    def take(self, index: np.ndarray) -> "ScriptTable":
        """The scripts at ``index``, in that order, with their events."""
        index = np.asarray(index, dtype=np.int64)
        counts = self.counts[index]
        rows = ranges(self.offsets[index], counts)
        return ScriptTable(
            {name: getattr(self, name)[index] for name in SCRIPT_FIELDS},
            counts,
            {name: _take(getattr(self, name), rows) for name in EVENT_FIELDS})

    def sorted(self) -> "ScriptTable":
        """The table in canonical ``(start, session_id)`` script order.

        Session ids are globally unique, so the order is total: sorting
        the tables of any member partition and merging them stably gives
        the table of all members.
        """
        order = np.lexsort((self.session_id, self.start))
        if len(order) < 2 or bool(np.all(order[1:] > order[:-1])):
            return self
        return self.take(order)

    @classmethod
    def concat(cls, tables: list["ScriptTable"]) -> "ScriptTable":
        """The scripts of ``tables``, in table order."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        return cls(
            {name: np.concatenate([getattr(t, name) for t in tables])
             for name in SCRIPT_FIELDS},
            np.concatenate([t.counts for t in tables]),
            {name: concat_stored([getattr(t, name) for t in tables])
             for name in EVENT_FIELDS})


class ScriptRows:
    """Row-at-a-time assembly of a :class:`ScriptTable`.

    ``scripts`` takes one ``(user_id, session_id, start, end,
    caused_by_attack, auth_failed, n_events)`` tuple per script and
    ``rows`` the script's ``n_events`` event rows right after, each in
    :data:`EVENT_FIELDS` order with enum fields as their trace codes.
    :meth:`build` transposes both lists once into typed columns.
    """

    __slots__ = ("scripts", "rows")

    def __init__(self) -> None:
        self.scripts: list[tuple] = []
        self.rows: list[tuple] = []

    def build(self) -> ScriptTable:
        """The table of every script and row appended so far."""
        scripts = list(zip(*self.scripts)) or [()] * (len(SCRIPT_FIELDS) + 1)
        events = list(zip(*self.rows)) or [()] * len(EVENT_FIELDS)
        return ScriptTable(
            {name: _typed(values, dtype) for name, dtype, values
             in zip(SCRIPT_FIELDS, _SCRIPT_DTYPES, scripts)},
            _typed(scripts[-1], np.int64),
            {name: _typed(values, dtype) for name, dtype, values
             in zip(EVENT_FIELDS, _EVENT_DTYPES, events)})
