"""Unit tests for the RPC worker.

Every RPC row records the reference of the request it serves, so each test
context is registered with the worker's trace sink first, as a replay
shard's request or a GC sweep's is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.latency import ServiceTimeModel, shard_skew_factors
from repro.backend.rpc_server import RpcContext, RpcWorker
from repro.backend.tracing import TraceSink
from repro.trace.records import ApiOperation, RpcName


@pytest.fixture
def worker():
    sink = TraceSink()
    latency = ServiceTimeModel(np.random.default_rng(0),
                               shard_skew_factors(0, 4))
    return RpcWorker(worker_id=0, latency=latency, sink=sink), sink


def _context(sink: TraceSink, shard_id=2) -> RpcContext:
    return RpcContext(100.0, shard_id, sink.explicit((
        100.0, "api0", 1, 6, 9, ApiOperation.LIST_VOLUMES, 0, 0, None, None,
        0, "", "", False, False)))


class TestRpcWorker:
    def test_execute_returns_operation_result(self, worker):
        rpc_worker, sink = worker
        result = rpc_worker.execute(RpcName.GET_DELTA, _context(sink),
                                    abs, -42)
        assert result == 42
        assert len(sink.dataset.rpc) == 1
        assert sink.dataset.rpc[0].service_time > 0

    def test_execute_records_rpc_on_the_context_shard(self, worker):
        rpc_worker, sink = worker
        rpc_worker.execute(RpcName.LIST_VOLUMES, _context(sink, shard_id=3),
                           len, ())
        record = sink.dataset.rpc[0]
        assert record.rpc is RpcName.LIST_VOLUMES
        assert record.shard_id == 3
        assert record.user_id == 6
        assert record.service_time > 0
        assert record.api_operation is ApiOperation.LIST_VOLUMES

    def test_single_and_block_rows_share_the_reference(self, worker):
        rpc_worker, sink = worker
        context = _context(sink, shard_id=3)
        assert rpc_worker.execute(RpcName.GET_NODE, context, abs, -5) == 5
        assert rpc_worker.execute_block(RpcName.ADD_PART_TO_UPLOADJOB, context,
                                        abs, [(-1,), (2,)]) == [1, 2]
        records = sink.dataset.rpc
        assert [r.shard_id for r in records] == [3, 3, 3]
        assert {(r.user_id, r.session_id, r.api_operation) for r in records} \
            == {(6, 9, ApiOperation.LIST_VOLUMES)}

    def test_exceptions_propagate(self, worker):
        rpc_worker, sink = worker
        with pytest.raises(ValueError):
            rpc_worker.execute(RpcName.GET_NODE, _context(sink), int, "boom")
        # The failing call is not recorded as a completed RPC.
        assert len(sink.dataset.rpc) == 0
