"""Which functions the traced job wraps, and the per-layer metrics.

Layers are named after the package's modules.  :data:`TARGETS` lists what
the traced job wraps (see :mod:`perfbench.tracer`); :data:`LAYER_METRICS`
declares every per-layer metric with its unit, which way is better, the
end-to-end metric it should move and the workloads it should move on.
``BENCHMARK.json`` mirrors the names, units and directions (the test keeps
the two in step); the ``moves``/``on`` map lives only here because the
benchmark file has no field for it.
"""

from __future__ import annotations

import statistics

__all__ = ["ANALYSIS_MODULES", "HEALTH", "LAYER_METRICS", "TARGETS",
           "traced_metrics", "untraced_metrics"]

#: The 16 figure/table analysis modules ``full_report`` calls into.
ANALYSIS_MODULES = (
    "anomaly", "burstiness", "deduplication", "file_dependencies",
    "file_types", "findings", "load_balancing", "node_lifetime",
    "request_graph", "rpc_performance", "sessions", "storage_workload",
    "summary", "user_activity", "user_traffic", "volumes",
)

_BACKEND = "repro.backend."

TARGETS = [
    ("workload.plan", "repro.workload.generator", "SyntheticTraceGenerator",
     ("plan",)),
    ("workload.materialize", _BACKEND + "replay_shard",
     "PlannedShardWorkload", ("scripts",)),
    ("cluster", _BACKEND + "cluster", "U1Cluster", ("replay_plan",)),
    ("supervisor", _BACKEND + "supervisor", None, ("supervise_shards",)),
    ("replay_shard.run", _BACKEND + "replay_shard", "ReplayShard", ("run",)),
    ("replay_shard.gc", _BACKEND + "replay_shard", "UploadJobCollector",
     ("collect",)),
    ("api_server", _BACKEND + "api_server", "ApiServerProcess", None),
    ("api_server", _BACKEND + "api_server", "SessionRegistry", None),
    ("rpc_server", _BACKEND + "rpc_server", "RpcWorker", None),
    # The latency model's per-RPC draw is inlined into the RPC worker; its
    # own work is the vectorised refill of the pooled service-time factors.
    ("latency", _BACKEND + "latency", "ServiceTimeModel", None),
    ("latency", _BACKEND + "latency", "ServiceTimeModel",
     ("_refill_factors",)),
    ("gateway", _BACKEND + "gateway", "LoadBalancer", None),
    ("auth", _BACKEND + "auth", "AuthenticationService", None),
    ("auth", _BACKEND + "auth", "TokenCache", None),
    ("shard", _BACKEND + "shard", "MetadataShard", None),
    ("metadata_store", _BACKEND + "metadata_store", "ShardedMetadataStore",
     None),
    ("datastore", _BACKEND + "datastore", "ObjectStore", None),
    ("notifications", _BACKEND + "notifications", "NotificationBus", None),
    ("faults.runtime", "repro.faults.runtime", "FaultInjector", None),
    ("faults.runtime", "repro.faults.runtime", "FaultSchedule", None),
    ("trace.pack", "repro.trace.dataset", "ColumnBlock", ("from_stream",)),
    ("trace.merge", "repro.trace.dataset", "TraceDataset",
     ("from_sorted_blocks",)),
    # The column accessors every analysis reads through (lazy decode of a
    # field on first use, cached after).
    ("trace.decode", "repro.trace.dataset", "TraceDataset",
     ("storage_column", "rpc_column", "session_column", "storage_codes",
      "rpc_codes", "session_codes")),
    *[(f"core.{module}", f"repro.core.{module}", None, None)
      for module in ANALYSIS_MODULES],
    ("core.report", "repro.core.report", None,
     ("format_report", "full_report")),
    # full_report looks these up in its own module namespace.
    ("whatif.economics", "repro.core.report", None, ("storage_economics",)),
    ("whatif.sweep", "repro.whatif.sweep", None, ("run_sweep",)),
    ("whatif.simulator.from_dataset", "repro.whatif.simulator",
     "StorageTrace", ("from_dataset",)),
    ("whatif.simulator.shared_pass", "repro.whatif.simulator",
     "StorageTrace", ("shared_pass",)),
    ("whatif.simulator.simulate_policy", "repro.whatif.sweep", None,
     ("simulate_policy",)),
    ("faults.sweep", "repro.faults.sweep", None, ("run_fault_sweep",)),
    ("faults.simulator.from_dataset", "repro.faults.simulator",
     "FaultTrace", ("from_dataset",)),
    ("faults.simulator.simulate_mitigation", "repro.faults.sweep", None,
     ("simulate_mitigation",)),
]

SYNC, WRITE, DDOS, FAULT = ("sync-steady", "write-heavy", "ddos-flood",
                            "faulted-sweeps")
ALL = (SYNC, WRITE, DDOS, FAULT)
_REPLAY = "replay_events_per_s"
_REPORT = "report_us_per_record"
_PIPELINE = "pipeline_us_per_event"

#: Metrics about the traced run itself rather than about a layer.
HEALTH = ("trace_overhead", "layer_coverage", "unattributed_s")

#: (name, unit, better, end-to-end metric it should move, workloads).
LAYER_METRICS: list[tuple[str, str, str, str | None, tuple]] = [
    ("workload.plan.self_s", "s", "lower", _PIPELINE, (WRITE, SYNC)),
    ("workload.materialize.self_s", "s", "lower", _PIPELINE, (WRITE, SYNC)),
    ("workload.materialize.us_per_event", "us", "lower", _PIPELINE,
     (WRITE, SYNC)),
    *[(f"api_server.{method}.{field}", unit, "lower", _REPLAY, on)
      for method, on in (("handle_event", (SYNC,)),
                         ("handle", (WRITE, FAULT)),
                         ("open_session", (DDOS,)),
                         ("close_session", (DDOS,)),
                         ("deliver_notification", (WRITE,)))
      for field, unit in (("calls", "count"), ("self_s", "s"))],
    ("api_server.slow_path_ratio", "ratio", "lower", _REPLAY, (WRITE, FAULT)),
    ("rpc_server.calls", "count", "lower", _REPLAY, (SYNC,)),
    ("rpc_server.self_s", "s", "lower", _REPLAY, (SYNC,)),
    ("latency.calls", "count", "lower", _REPLAY, (SYNC,)),
    ("latency.self_s", "s", "lower", _REPLAY, (SYNC,)),
    ("gateway.calls", "count", "lower", _REPLAY, (DDOS,)),
    ("gateway.self_s", "s", "lower", _REPLAY, (DDOS,)),
    ("gateway.imbalance", "ratio", "lower", _REPLAY, (DDOS,)),
    ("auth.calls", "count", "lower", _REPLAY, (DDOS,)),
    ("auth.self_s", "s", "lower", _REPLAY, (DDOS,)),
    ("auth.failure_ratio", "ratio", "lower", _REPLAY, (DDOS,)),
    ("shard.calls", "count", "lower", _REPLAY, (WRITE,)),
    ("shard.self_s", "s", "lower", _REPLAY, (WRITE,)),
    ("shard.dedup_hit_ratio", "ratio", "higher", _REPLAY, (WRITE,)),
    ("metadata_store.calls", "count", "lower", _REPLAY, (WRITE,)),
    ("metadata_store.self_s", "s", "lower", _REPLAY, (WRITE,)),
    ("datastore.calls", "count", "lower", _REPLAY, (WRITE,)),
    ("datastore.self_s", "s", "lower", _REPLAY, (WRITE,)),
    ("datastore.dedup_ratio", "ratio", "higher", _REPLAY, (WRITE,)),
    ("notifications.calls", "count", "lower", _REPLAY, (WRITE,)),
    ("notifications.self_s", "s", "lower", _REPLAY, (WRITE,)),
    ("notifications.deliveries", "count", "lower", _REPLAY, (WRITE,)),
    ("replay_shard.gc.calls", "count", "lower", _REPLAY, (WRITE,)),
    ("replay_shard.gc.self_s", "s", "lower", _REPLAY, (WRITE,)),
    ("replay_shard.run.self_s", "s", "lower", _REPLAY, ALL),
    ("replay_shard.build_s", "s", "lower", _REPLAY, ALL),
    ("replay_shard.dispatch_s", "s", "lower", _REPLAY, ALL),
    ("replay_shard.pack_s", "s", "lower", _REPLAY, ALL),
    ("trace.pack.self_s", "s", "lower", _PIPELINE, (SYNC,)),
    ("trace.merge.self_s", "s", "lower", _PIPELINE, (SYNC,)),
    ("replay_shard.ipc_mb", "MB", "lower", "peak_rss_mb", (SYNC,)),
    ("replay_shard.imbalance", "ratio", "lower", _PIPELINE, (SYNC,)),
    ("supervisor.shard_wall_s", "s", "lower", _PIPELINE, (SYNC,)),
    ("supervisor.retries", "count", "lower", _PIPELINE, (SYNC,)),
    ("supervisor.self_s", "s", "lower", _PIPELINE, (SYNC,)),
    ("cluster.merge_s", "s", "lower", _PIPELINE, (SYNC,)),
    ("cluster.self_s", "s", "lower", _PIPELINE, (SYNC,)),
    # The live request path and the offline mitigation sweep both drive the
    # fault runtime, so it moves the whole pipeline, not only the replay.
    ("faults.runtime.calls", "count", "lower", _PIPELINE, (FAULT,)),
    ("faults.runtime.self_s", "s", "lower", _PIPELINE, (FAULT,)),
    ("faults.runtime.faulted_ratio", "ratio", "lower", _REPLAY, (FAULT,)),
    *[(f"core.{module}.self_s", "s", "lower", _REPORT, (SYNC, WRITE))
      for module in (*ANALYSIS_MODULES, "report")],
    ("whatif.economics.self_s", "s", "lower", _REPORT, (SYNC, WRITE)),
    ("trace.decode.self_s", "s", "lower", _REPORT, (SYNC, WRITE)),
    *[(f"{layer}.self_s", "s", "lower", _PIPELINE, (FAULT,))
      for layer in ("whatif.sweep", "whatif.simulator.from_dataset",
                    "whatif.simulator.shared_pass",
                    "whatif.simulator.simulate_policy", "faults.sweep",
                    "faults.simulator.from_dataset",
                    "faults.simulator.simulate_mitigation")],
    ("trace_overhead", "ratio", "lower", None, ALL),
    ("layer_coverage", "ratio", "higher", None, ALL),
    ("unattributed_s", "s", "lower", None, ALL),
]


_NO_CALLS = {"calls": 0, "self_s": 0.0}


def _by_layer(spans: list[dict]) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["layer"], dict(_NO_CALLS))
        entry["calls"] += span["calls"]
        entry["self_s"] += span["self_s"]
    return totals


def _by_function(spans: list[dict], function: str) -> dict[str, float]:
    calls = sum(s["calls"] for s in spans if s["function"] == function)
    self_s = sum(s["self_s"] for s in spans if s["function"] == function)
    return {"calls": calls, "self_s": self_s}


def traced_metrics(spans: list[dict], wall_s: float, per_call_cost: float,
                   cluster, dataset) -> dict[str, float]:
    """Per-layer metrics of one traced job (``wall_s``: its pipeline wall).

    ``cluster`` and ``dataset`` are the traced job's replayed cluster and
    trace: the ratios are read from their public counters after the run.
    """
    from repro.trace.dataset import SESSION_EVENT_CODE
    from repro.trace.records import SessionEvent

    layers = _by_layer(spans)

    def layer(name: str, field: str) -> float:
        return layers.get(name, _NO_CALLS)[field]

    labels = {target[0] for target in TARGETS}
    metrics: dict[str, float] = {}
    for name, *_ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if head in labels and field in ("calls", "self_s"):
            metrics[name] = layer(head, field)
    events = cluster.last_replay_stats["events_replayed"]
    api = {}
    for method in ("handle_event", "handle", "open_session", "close_session",
                   "deliver_notification"):
        api[method] = _by_function(
            spans, f"backend.api_server.ApiServerProcess.{method}")
        metrics[f"api_server.{method}.calls"] = api[method]["calls"]
        metrics[f"api_server.{method}.self_s"] = api[method]["self_s"]
    metrics["api_server.slow_path_ratio"] = (
        api["handle"]["calls"] / max(api["handle_event"]["calls"], 1))
    metrics["workload.materialize.us_per_event"] = (
        layer("workload.materialize", "self_s") * 1e6 / max(events, 1))

    metrics["gateway.imbalance"] = cluster.gateway.imbalance()
    codes = dataset.session_column("event")
    requests = int((codes == SESSION_EVENT_CODE[SessionEvent.AUTH_REQUEST])
                   .sum())
    failures = int((codes == SESSION_EVENT_CODE[SessionEvent.AUTH_FAIL]).sum())
    metrics["auth.failure_ratio"] = failures / max(requests, 1)
    accounting = cluster.object_store.accounting
    reusable = _by_function(
        spans, "backend.shard.MetadataShard.get_reusable_content")["calls"]
    metrics["shard.dedup_hit_ratio"] = accounting.dedup_hits / max(reusable, 1)
    metrics["datastore.dedup_ratio"] = cluster.object_store.deduplication_ratio()
    metrics["notifications.deliveries"] = sum(
        process.notifications_pushed for process in cluster.processes)
    faults = cluster.last_replay_stats["fault_counters"]
    metrics["faults.runtime.faulted_ratio"] = (
        faults.get("requests_faulted", 0) / max(events, 1))

    overhead_s = sum(span["calls"] for span in spans) * per_call_cost
    attributed = sum(span["self_s"] for span in spans)
    corrected_wall = wall_s - overhead_s
    metrics["layer_coverage"] = attributed / corrected_wall
    metrics["unattributed_s"] = corrected_wall - attributed
    return metrics


def untraced_metrics(jobs: list[dict], traced_wall_s: float) -> dict:
    """Per-layer metrics read from the untraced jobs' replay statistics."""
    def median(key: str) -> float:
        return statistics.median(job["stats"][key] for job in jobs)

    return {
        "trace_overhead": traced_wall_s / statistics.median(
            job["pipeline_s"] for job in jobs),
        "replay_shard.build_s": median("build_s"),
        "replay_shard.dispatch_s": median("dispatch_s"),
        "replay_shard.pack_s": median("pack_s"),
        "replay_shard.ipc_mb": median("ipc_mb"),
        "replay_shard.imbalance": median("imbalance"),
        "supervisor.shard_wall_s": median("shard_wall_s"),
        "supervisor.retries": max(job["stats"]["retries"] for job in jobs),
        "cluster.merge_s": median("merge_s"),
    }
