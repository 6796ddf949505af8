"""Trace sink: collects the records emitted by the simulated back-end.

The real measurement instruments every API/RPC server process and later
merges their logfiles.  The simulator short-circuits that by writing
straight into a :class:`~repro.trace.dataset.TraceDataset`;
:mod:`repro.trace.logfile` writes a finished trace out as those per-process
logfiles (``repro generate --out``) and reads them back.

Most fields of a trace row are the fields of the request it serves
(:data:`~repro.trace.dataset.REQUEST_FIELDS`), so the sink records
*provenance* instead of rows.  An RPC row is buffered as its request's
reference, the RPC code, the metadata shard id and the ordinal of the
latency factor its call took; the service time is resolved from the
ordinal through the workers' latency model (:attr:`TraceSink.latency`).
Storage and session rows are never buffered: a replay shard builds them as
columns after dispatch, merges its downloads' ``GET_NODE`` rows into the
buffered RPC rows (:meth:`~repro.backend.replay_shard.ReplayShard.run`)
and hands all three to :meth:`TraceSink.gather`.

A reference ``>= 0`` is a row of a replay shard's request columns (its
timeline ordinal: a session open or an event); the shard resolves it when
it gathers its column blocks (:meth:`TraceSink.gather`).  The only
requests without a timeline ordinal are the uploadjob garbage-collection
sweeps, which serve no client, and the requests of callers outside a
replay: each is registered with :meth:`TraceSink.explicit` and gets a
negative reference into the sink's own request table, so every row takes
the same record path.  Reading :attr:`TraceSink.dataset` gathers the
buffered RPC rows into the dataset first.

The buffers are plain lists, each converted to one typed NumPy array when
the rows are gathered.  A list append is about a third of an
``array.array`` append (whose item setter parses every value), and its
items are small ints the request already holds.
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

#: The storage and session blocks of no rows: no request rows, and the
#: fields a row does not take from its request.
_NO_STORAGE = (np.zeros(0, dtype=np.int64), {
    "shard_id": np.zeros(0, dtype=np.int64),
    "error_kind": (np.zeros(0, dtype=np.int32), [""]),
    "retries": np.zeros(0, dtype=np.int64)})
_NO_SESSIONS = (np.zeros(0, dtype=np.int64), {
    "timestamp": np.zeros(0), "event": np.zeros(0, dtype=np.int16),
    "session_length": np.zeros(0),
    "storage_operations": np.zeros(0, dtype=np.int64)})


def _typed(buffer: list, dtype) -> np.ndarray:
    """One provenance buffer as a typed array."""
    return np.fromiter(buffer, dtype=dtype, count=len(buffer))


class TraceSink:
    """Accumulates the trace rows produced during a simulation run."""

    __slots__ = ("_dataset", "latency", "rpc_refs", "rpc_codes",
                 "rpc_shards", "rpc_factors", "_explicit")

    def __init__(self, dataset: TraceDataset | None = None):
        self._dataset = dataset if dataset is not None else TraceDataset()
        #: The latency model of the RPC workers writing here.
        self.latency = None
        #: Per RPC row: request reference, ``RPC_CODE``, shard id, factor
        #: ordinal.
        self.rpc_refs: list[int] = []
        self.rpc_codes: list[int] = []
        self.rpc_shards: list[int] = []
        self.rpc_factors: list[int] = []
        # Requests with no timeline ordinal (REQUEST_FIELDS tuples), kept
        # for the sink's lifetime.  The reference of entry k is -1 - k.
        self._explicit: list[tuple] = []

    def explicit(self, request: tuple) -> int:
        """Register a request given as a :data:`REQUEST_FIELDS` tuple and
        return its reference."""
        self._explicit.append(request)
        return -len(self._explicit)

    def buffered_rpc(self) -> tuple[np.ndarray, ...]:
        """The buffered RPC rows as typed arrays: references, codes, shard
        ids and factor ordinals, in call order."""
        return (_typed(self.rpc_refs, np.int64),
                _typed(self.rpc_codes, np.int16),
                _typed(self.rpc_shards, np.int64),
                _typed(self.rpc_factors, np.int64))

    def gather(self, sources: dict | None = None,
               storage: tuple | None = None, rpc: tuple | None = None,
               sessions: tuple | None = None
               ) -> tuple[ColumnBlock, ColumnBlock, ColumnBlock]:
        """Gather ``(storage, rpc, sessions)`` column blocks and empty the
        RPC buffers.

        ``sources`` holds the :data:`REQUEST_FIELDS` columns of the timeline
        requests in stored form, a reference ``>= 0`` being a row there; a
        sink that only saw explicit requests needs none.  ``storage`` and
        ``sessions`` are ``(rows, columns)``: the rows' requests (rows of
        ``sources``) and their fields not taken from them; without them
        the block is empty.  ``rpc`` is ``(refs, columns)`` likewise, by
        request reference; without it, the buffered rows.
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
        if rpc is None:
            refs, codes, shards, ordinals = self.buffered_rpc()
            rpc = refs, {"rpc": codes, "shard_id": shards,
                         "service_time": self.latency.service_times(
                             codes, shards, ordinals)
                         if len(refs) else np.zeros(0)}
        refs, rpc_columns = rpc
        timeline = refs >= 0
        if sources is None and timeline.any():
            raise ValueError("timeline references need the timeline's "
                             "request columns")
        rows, columns = storage or _NO_STORAGE
        storage = ColumnBlock.gather("storage", merged, rows, columns)
        rpc = ColumnBlock.gather(
            "rpc", {**merged, "api_operation": merged["operation"]},
            np.where(timeline, refs, offset - 1 - refs), rpc_columns)
        rows, columns = sessions or _NO_SESSIONS
        sessions = ColumnBlock.gather("sessions", merged, rows, columns)
        # Cleared in place: the workers hold the buffers' bound appenders.
        for buffer in (self.rpc_refs, self.rpc_codes, self.rpc_shards,
                       self.rpc_factors):
            buffer.clear()
        return storage, rpc, sessions

    @property
    def dataset(self) -> TraceDataset:
        """The trace so far, with every buffered RPC row gathered into it."""
        if self.rpc_refs:
            for stream, block in zip(
                    (self._dataset._storage, self._dataset._rpc,
                     self._dataset._sessions), self.gather()):
                stream.append_block(block)
        return self._dataset

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceSink({self._dataset!r})"
