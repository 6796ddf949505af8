"""Trace sink: collects the records emitted by the simulated back-end.

The real measurement instruments every API/RPC server process and later
merges their logfiles.  The simulator short-circuits that by writing rows
straight into a :class:`~repro.trace.dataset.TraceDataset`; the logfile
round-trip of :mod:`repro.trace.logfile` is still available for tests and
examples that want on-disk traces.

The sink's ``storage_row`` / ``rpc_row`` / ``session_row`` are the bound
``list.append`` of each stream's append buffer: one C-level call per
emitted row tuple (record-field order), no record object, no per-append
bookkeeping.  The dataset packs the buffer into columns when it is first
read and clears it in place, so the bound appenders never go stale.
"""

from __future__ import annotations

from repro.trace.dataset import TraceDataset

__all__ = ["TraceSink"]


class TraceSink:
    """Accumulates trace rows produced during a simulation run."""

    __slots__ = ("dataset", "storage_row", "rpc_row", "session_row")

    def __init__(self, dataset: TraceDataset | None = None):
        self.dataset = dataset if dataset is not None else TraceDataset()
        #: Append one storage row tuple (``StorageRecord`` field order).
        self.storage_row = self.dataset._storage.append
        #: Append one RPC row tuple (``RpcRecord`` field order).
        self.rpc_row = self.dataset._rpc.append
        #: Append one session row tuple (``SessionRecord`` field order).
        self.session_row = self.dataset._sessions.append

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceSink({self.dataset!r})"
