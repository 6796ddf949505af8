"""Trace sink: collects the records emitted by the simulated back-end.

The real measurement instruments every API/RPC server process and later
merges their logfiles.  The simulator short-circuits that by writing
straight into a :class:`~repro.trace.dataset.TraceDataset`;
:mod:`repro.trace.logfile` writes a finished trace out as those per-process
logfiles (``repro generate --out``) and reads them back.

Most fields of a trace row are the fields of the request it serves
(:data:`~repro.trace.dataset.REQUEST_FIELDS`), so the sink records
*provenance* instead of rows, one buffer per provenance field:

* a storage row: its request's reference and the metadata shard id (a
  replay shard gives ``error_kind``/``retries`` from its fault dispositions);
* an RPC row: its request's reference, the RPC code, the shard id and the
  service time.

Session rows are not written one by one: a replay shard builds them as
columns after dispatch, from each session's open request and outcome, and
hands them to :meth:`TraceSink.gather`.

A reference ``>= 0`` is a row of a replay shard's request columns (its
timeline ordinal: a session open or an event); the shard resolves it when
it gathers its column blocks (:meth:`TraceSink.gather`).  The only
requests without a timeline ordinal are the uploadjob garbage-collection
sweeps, which serve no client, and the requests of callers outside a
replay: each is registered with :meth:`TraceSink.explicit` and gets a
negative reference into the sink's own request table, so every row takes
the same record path.  Reading :attr:`TraceSink.dataset` gathers the
buffered rows into the dataset first.

The buffers are plain lists, each converted to one typed NumPy array when
the rows are gathered.  A list append is about a third of an
``array.array`` append (whose item setter parses every value), and its
items are objects the request already holds — small ints, the timeline
ordinal — except the service-time floats.
"""

from __future__ import annotations

import numpy as np

from repro.trace.dataset import (
    REQUEST_FIELDS,
    ColumnBlock,
    TraceDataset,
    concat_stored,
    request_column,
)

__all__ = ["TraceSink"]

#: The session block of a sink with no session rows: no request rows, and
#: the fields a session row does not take from its request.
_NO_SESSIONS = (np.zeros(0, dtype=np.int64), {
    "timestamp": np.zeros(0), "event": np.zeros(0, dtype=np.int16),
    "session_length": np.zeros(0),
    "storage_operations": np.zeros(0, dtype=np.int64)})


def _typed(buffer: list, dtype) -> np.ndarray:
    """One provenance buffer as a typed array."""
    return np.fromiter(buffer, dtype=dtype, count=len(buffer))


class TraceSink:
    """Accumulates the trace rows produced during a simulation run."""

    __slots__ = ("_dataset", "storage_refs", "storage_shards", "rpc_refs",
                 "rpc_codes", "rpc_shards", "rpc_service_times", "_explicit")

    def __init__(self, dataset: TraceDataset | None = None):
        self._dataset = dataset if dataset is not None else TraceDataset()
        #: Per storage row: request reference, metadata shard id.
        self.storage_refs: list[int] = []
        self.storage_shards: list[int] = []
        #: Per RPC row: request reference, ``RPC_CODE``, shard id, seconds.
        self.rpc_refs: list[int] = []
        self.rpc_codes: list[int] = []
        self.rpc_shards: list[int] = []
        self.rpc_service_times: list[float] = []
        # Requests with no timeline ordinal (REQUEST_FIELDS tuples), kept
        # for the sink's lifetime.  The reference of entry k is -1 - k.
        self._explicit: list[tuple] = []

    def explicit(self, request: tuple) -> int:
        """Register a request given as a :data:`REQUEST_FIELDS` tuple and
        return its reference."""
        self._explicit.append(request)
        return -len(self._explicit)

    def gather(self, sources: dict | None = None, storage_faults=None,
               sessions: tuple | None = None
               ) -> tuple[ColumnBlock, ColumnBlock, ColumnBlock]:
        """Gather the buffered rows into ``(storage, rpc, sessions)``
        column blocks and empty the buffers.

        ``sources`` holds the :data:`REQUEST_FIELDS` columns of the timeline
        requests in stored form, a reference ``>= 0`` being a row there; a
        sink that only saw explicit requests needs none.
        ``storage_faults`` is ``(error_kind, retries)`` of the storage rows
        in stored form; without it every row is clean.  ``sessions`` is
        ``(rows, columns)``: the session rows' open requests (rows of
        ``sources``) and their ``timestamp``, ``event``,
        ``session_length`` and ``storage_operations`` columns; without it
        the session block is empty.
        """
        explicit = self._explicit
        offset = 0 if sources is None else len(sources["timestamp"])
        merged = sources
        if explicit or sources is None:
            columns = list(zip(*explicit)) or [()] * len(REQUEST_FIELDS)
            table = {name: request_column(name, values)
                     for name, values in zip(REQUEST_FIELDS, columns)}
            merged = table if sources is None else {
                name: concat_stored([sources[name], table[name]])
                for name in REQUEST_FIELDS}

        def rows_of(refs: list[int]) -> np.ndarray:
            ref = _typed(refs, np.int64)
            timeline = ref >= 0
            if sources is None and timeline.any():
                raise ValueError("timeline references need the timeline's "
                                 "request columns")
            return np.where(timeline, ref, offset - 1 - ref)

        n = len(self.storage_refs)
        error_kind, retries = storage_faults or (
            (np.zeros(n, dtype=np.int32), [""]), np.zeros(n, dtype=np.int64))
        storage = ColumnBlock.gather("storage", merged,
                                     rows_of(self.storage_refs), {
            "shard_id": _typed(self.storage_shards, np.int64),
            "error_kind": error_kind,
            "retries": retries})
        rpc = ColumnBlock.gather(
            "rpc", {**merged, "api_operation": merged["operation"]},
            rows_of(self.rpc_refs), {
                "rpc": _typed(self.rpc_codes, np.int16),
                "shard_id": _typed(self.rpc_shards, np.int64),
                "service_time": _typed(self.rpc_service_times, np.float64)})
        rows, columns = sessions or _NO_SESSIONS
        sessions = ColumnBlock.gather("sessions", merged, rows, columns)
        # Cleared in place: the writers hold the buffers' bound appenders.
        for buffer in (self.storage_refs, self.storage_shards, self.rpc_refs,
                       self.rpc_codes, self.rpc_shards,
                       self.rpc_service_times):
            buffer.clear()
        return storage, rpc, sessions

    @property
    def dataset(self) -> TraceDataset:
        """The trace so far, with every buffered row gathered into it."""
        if self.storage_refs or self.rpc_refs:
            for stream, block in zip(
                    (self._dataset._storage, self._dataset._rpc,
                     self._dataset._sessions), self.gather()):
                stream.append_block(block)
        return self._dataset

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceSink({self._dataset!r})"
