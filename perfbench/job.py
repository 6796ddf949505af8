"""One benchmark job: plan -> replay -> report (-> sweeps), in a fresh process.

    python3 perfbench/job.py WORKLOAD_JSON SEED SPAWNED_AT TRACE VALIDATE

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide, so ``setup_s`` covers interpreter start, the
package import and the cluster construction).  ``TRACE`` and ``VALIDATE``
are ``0`` or ``1``.
The job prints one JSON object (:func:`run_job`'s result) as its last line.
It calls only the package's public API and writes no file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.workloads import (  # noqa: E402
    Workload,
    cluster_config,
    workload_config,
)

__all__ = ["run_job"]


def _peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    import resource

    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_job(workload: Workload, seed: int, spawned_at: float,
            trace: bool = False, validate: bool = False) -> dict:
    """Run one job and return its timings, counts and correctness facts.

    With ``trace`` the layer functions are wrapped before the cluster is
    built and the replay runs in-process (``jobs=1``) so the wrappers see
    every shard; the result then carries the spans and the traced
    per-layer metrics.  ``validate`` runs the trace invariant checks.
    """
    from repro.backend import cluster as cluster_module
    from repro.core import report as report_module
    from repro.faults import sweep as fault_sweep_module
    from repro.trace.validate import validate_dataset
    from repro.whatif import sweep as whatif_sweep_module
    from repro.workload import generator as generator_module

    config = workload_config(workload, seed)
    tracer = None
    if trace:
        from perfbench.layers import TARGETS
        from perfbench.tracer import SpanTracer

        tracer = SpanTracer(TARGETS).install()
    try:
        cluster = cluster_module.U1Cluster(cluster_config(workload, config))
        setup_s = time.monotonic() - spawned_at
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        plan = generator_module.SyntheticTraceGenerator(config).plan()
        planned = time.perf_counter()
        dataset = cluster.replay_plan(plan, n_jobs=1 if trace
                                      else workload.jobs)
        replayed = time.perf_counter()
        report = report_module.format_report(dataset)
        reported = time.perf_counter()
        sweep_outcomes = 0
        if workload.sweeps:
            whatif = whatif_sweep_module.run_sweep(
                dataset, cost_model=cluster.config.cost_model,
                chunk_bytes=cluster.config.multipart_chunk_bytes,
                end_time=cluster.last_replay_stats["timeline_end"])
            mitigations = fault_sweep_module.run_fault_sweep(
                dataset, cluster.fault_schedule, config=cluster.config)
            sweep_outcomes = len(whatif.outcomes) + len(mitigations.outcomes)
        finished = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()

    stats = cluster.last_replay_stats
    result = {
        "setup_s": setup_s,
        "pipeline_s": finished - started,
        "plan_s": planned - started,
        "replay_s": replayed - planned,
        "report_s": reported - replayed,
        "sweep_s": finished - reported,
        "events": stats["events_replayed"],
        "records": len(dataset),
        "report_chars": len(report),
        "sweep_outcomes": sweep_outcomes,
        "digest": dataset.content_digest(),
        "violations": validate_dataset(dataset) if validate else None,
        "peak_rss_mb": _peak_rss_mb(),
        "stats": {
            "jobs": stats["n_jobs"],
            "build_s": sum(stats["shard_block_build_seconds"]),
            "dispatch_s": sum(stats["shard_dispatch_seconds"]),
            "pack_s": sum(stats["shard_pack_seconds"]),
            "ipc_mb": stats["ipc_block_bytes"] / 2**20,
            "imbalance": stats["shard_imbalance"],
            "shard_wall_s": sum(stats["shard_wall_seconds"].values()),
            "retries": sum(stats["shard_retries"].values()),
            "quarantined": len(stats["quarantined_shards"]),
            "merge_s": stats["merge_seconds"],
        },
    }
    if tracer is not None:
        from perfbench.layers import traced_metrics

        spans = tracer.spans()
        result["spans"] = spans
        result["per_call_cost_s"] = tracer.per_call_cost
        result["layers"] = traced_metrics(
            spans, result["pipeline_s"], tracer.per_call_cost, cluster,
            dataset)
    return result


def main(argv: list[str]) -> int:
    workload = Workload.from_json(json.loads(argv[0]))
    seed, spawned_at = int(argv[1]), float(argv[2])
    result = run_job(workload, seed, spawned_at, trace=argv[3] == "1",
                     validate=argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
