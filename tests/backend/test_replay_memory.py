"""A finished replay shard is freed by reference counting alone.

The replay runs under :func:`~repro.util.gctools.cyclic_gc_paused`, which
ends with ``gc.freeze()``: any reference cycle left behind by a replay would
be pinned in the permanent generation for the life of the process.  These
tests hold the replay engine to the contract that makes the pause sound —
the object graph a shard builds (API processes, notification bus, metadata
shards, trace sink) contains no reference cycle.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator

_SEED = 11


@pytest.fixture(scope="module")
def plan():
    config = WorkloadConfig.scaled(users=40, days=0.5, seed=_SEED)
    return SyntheticTraceGenerator(config).plan()


def _replay(plan) -> int:
    cluster = U1Cluster(ClusterConfig(seed=_SEED))
    return len(cluster.replay_plan(plan, n_jobs=1).storage)


@pytest.fixture
def gc_state():
    """Restore the collector's enabled state and debug flags afterwards."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        else:
            gc.disable()


def test_replay_leaves_no_cyclic_garbage(plan, gc_state):
    # Flush what earlier code left frozen, so only this replay is judged.
    gc.unfreeze()
    gc.collect()
    cluster = U1Cluster(ClusterConfig(seed=_SEED))
    dataset = cluster.replay_plan(plan, n_jobs=1)
    assert len(dataset.storage) > 0
    del cluster, dataset
    gc.unfreeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                     for obj in gc.garbage
                     if type(obj).__module__.startswith("repro.")})
    assert leaked == []


def test_repeated_replays_do_not_accumulate_memory(plan, gc_state):
    assert _replay(plan) > 0  # warm module-level caches before tracing
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            _replay(plan)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert retained < 2 * 1024 * 1024
