"""RPC database workers (Section 3.4).

RPC workers sit between the API servers and the metadata store: they receive
RPC calls, run them as database queries on the shard the calling API server
routed the request to, and return the result.  The measurement traces every RPC
together with its service time.  The simulator's worker takes one latency
factor of the :class:`~repro.backend.latency.ServiceTimeModel` per call, in
call order, and records the call in the :mod:`~repro.backend.tracing` sink
with the factor's ordinal; service times (and a replay shard's
degraded-process inflation) are resolved after the replay.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.backend.latency import ServiceTimeModel
from repro.backend.tracing import TraceSink
from repro.trace.dataset import RPC_CODE
from repro.trace.records import RpcName

__all__ = ["RpcContext", "RpcWorker"]


class RpcContext:
    """The request an RPC call serves: when it runs, which metadata shard
    it hits, and the request's trace-sink reference.

    Every other field of an RPC row (server, process, user, session, API
    operation, ...) is the served request's, gathered through ``ref`` — a
    timeline ordinal or a :meth:`~repro.backend.tracing.TraceSink.explicit`
    registration, set by the caller before the context reaches a worker.
    ``shard_id`` is the shard the caller routed the request to (a session's
    shard, or the swept shard of a GC sweep).  A plain slotted class: an
    API process reuses one context for all its requests.
    """

    __slots__ = ("timestamp", "shard_id", "ref")

    def __init__(self, timestamp: float, shard_id: int,
                 ref: int | None = None):
        self.timestamp = timestamp
        self.shard_id = shard_id
        self.ref = ref


class RpcWorker:
    """Executes DAL calls against a metadata shard and traces them."""

    def __init__(self, worker_id: int, latency: ServiceTimeModel,
                 sink: TraceSink):
        self.worker_id = worker_id
        self._latency = latency
        sink.latency = latency  # resolves the rows' factor ordinals
        # The sink's bound provenance appenders (execute() runs per RPC).
        self._sink = sink
        self._rpc_ref = sink.rpc_refs.append
        self._rpc_code = sink.rpc_codes.append
        self._rpc_shard = sink.rpc_shards.append
        self._rpc_factor = sink.rpc_factors.append

    def execute(self, rpc: RpcName, context: RpcContext,
                operation: Callable[..., Any], *args) -> Any:
        """Run ``operation(*args)`` as RPC ``rpc`` on ``context``'s shard.

        ``operation`` is the bound shard (or auth service) method that
        performs the query, passed with its positional arguments — no
        closure allocation per RPC.  The worker takes the call's latency
        factor, runs the operation, traces the call and returns the
        operation's result (one that raises leaves no row).
        """
        # ServiceTimeModel.draw(1), inlined (one call frame per RPC matters
        # here).
        model = self._latency
        i = model._factor_index
        if i >= model._block_size:
            model._refill_factors()
            i = 0
        model._factor_index = i + 1
        ordinal = model._offset + i
        result = operation(*args)
        self._rpc_ref(context.ref)
        self._rpc_code(RPC_CODE[rpc])
        self._rpc_shard(context.shard_id)
        self._rpc_factor(ordinal)
        return result

    def execute_block(self, rpc: RpcName, context: RpcContext,
                      operation: Callable[..., Any],
                      args_list: list[tuple]) -> list[Any]:
        """Run a block of same-kind RPCs (multipart part uploads) sharing
        one context: the factors are one block draw, and the rows differ
        only in their ordinals.  Returns the results in call order."""
        n = len(args_list)
        if n == 0:
            return []
        first = self._latency.draw(n, block=True)
        results = [operation(*args) for args in args_list]
        sink = self._sink
        sink.rpc_refs.extend([context.ref] * n)
        sink.rpc_codes.extend([RPC_CODE[rpc]] * n)
        sink.rpc_shards.extend([context.shard_id] * n)
        sink.rpc_factors.extend(range(first, first + n))
        return results
