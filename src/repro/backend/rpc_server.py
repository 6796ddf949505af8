"""RPC database workers (Section 3.4).

RPC workers sit between the API servers and the metadata store: they receive
RPC calls, run them as database queries on the shard the calling API server
routed the request to, and return the result.  The measurement traces every RPC
together with its service time; the simulator reproduces that by sampling a
service time from the :class:`~repro.backend.latency.ServiceTimeModel` for
every executed call and recording it in the :mod:`~repro.backend.tracing` sink.
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
                 sink: TraceSink, faults=None):
        self.worker_id = worker_id
        self._latency = latency
        # The sink's bound provenance appenders (execute() runs per RPC).
        self._sink = sink
        self._rpc_ref = sink.rpc_refs.append
        self._rpc_code = sink.rpc_codes.append
        self._rpc_shard = sink.rpc_shards.append
        self._rpc_service = sink.rpc_service_times.append
        #: Total number of RPCs executed by this worker.
        self.calls_executed = 0
        #: Total simulated time spent servicing RPCs (seconds).
        self.busy_time = 0.0
        # Degradation windows of this worker (fault injection): inflation
        # multiplies the already-drawn service time, so the pooled factor
        # stream — and with it the zero-fault trace — is untouched.
        self._degraded = faults.schedule.degraded.get(worker_id) \
            if faults is not None else None
        self._degraded_counters = faults.accounting if faults is not None \
            else None

    def _inflate(self, timestamp: float, service_time: float) -> float:
        """Apply this worker's degradation window, if one covers the call.

        Called once the call's operation has returned, so an RPC whose
        operation raises (a failed token validation) leaves neither a trace
        row nor a degraded count, as the offline pass over the trace sees it.
        """
        for start, end, inflation in self._degraded:
            if start <= timestamp < end:
                extra = service_time * (inflation - 1.0)
                accounting = self._degraded_counters
                accounting.degraded_rpcs += 1
                accounting.degraded_extra_seconds += extra
                return service_time + extra
        return service_time

    def execute(self, rpc: RpcName, context: RpcContext,
                operation: Callable[..., Any], *args) -> Any:
        """Run ``operation(*args)`` as RPC ``rpc`` on ``context``'s shard.

        ``operation`` is the bound shard (or auth service) method that
        performs the query, passed with its positional arguments — no
        closure allocation per RPC.  The worker samples a service time,
        traces the call and returns the operation's result.
        """
        shard_id = context.shard_id
        # Inlined ServiceTimeModel.sample (one call frame per RPC matters
        # here): pull the next pooled body factor and scale the per-(rpc,
        # shard) base median.  Falls back to the model for pool refills.
        model = self._latency
        factors = model._factors
        i = model._factor_index
        if i >= len(factors):
            model._refill_factors()
            factors = model._factors
            i = 0
        model._factor_index = i + 1
        service_time = (model._base_by_rpc[rpc][shard_id % model._n_shards]
                        * factors[i])
        result = operation(*args)
        if self._degraded is not None:
            service_time = self._inflate(context.timestamp, service_time)
        self.calls_executed += 1
        self.busy_time += service_time
        self._rpc_ref(context.ref)
        self._rpc_code(RPC_CODE[rpc])
        self._rpc_shard(shard_id)
        self._rpc_service(service_time)
        return result

    def execute_block(self, rpc: RpcName, context: RpcContext,
                      operation: Callable[..., Any],
                      args_list: list[tuple]) -> list[Any]:
        """Run a block of same-kind RPCs sharing one context.

        The vectorised counterpart of :meth:`execute` for runs of identical
        calls (multipart part uploads, GC sweeps): service times are drawn in
        one pooled block, the counters are updated once for the whole block,
        and the trace rows share the context's request reference — only the
        per-call service time differs.  Returns the operation results in
        call order.
        """
        n = len(args_list)
        if n == 0:
            return []
        shard_id = context.shard_id
        times = self._latency.sample_block(rpc, shard_id, n)
        results = [operation(*args) for args in args_list]
        if self._degraded is not None:
            times = [self._inflate(context.timestamp, service_time)
                     for service_time in times]
        self.calls_executed += n
        self.busy_time += sum(times)
        sink = self._sink
        sink.rpc_refs.extend([context.ref] * n)
        sink.rpc_codes.extend([RPC_CODE[rpc]] * n)
        sink.rpc_shards.extend([shard_id] * n)
        sink.rpc_service_times.extend(times)
        return results
