"""The U1 back-end cluster: configuration and workload replay.

:class:`ClusterConfig` sizes the back-end described in Section 3.4 — load
balancer, API server processes spread over six machines, RPC workers, the
10-shard metadata store, the S3-like object store, the authentication
service and the notification bus.  :class:`U1Cluster` replays a workload
plan through it: each replay shard (:mod:`repro.backend.replay_shard`)
assembles its slice of that back-end and serves its requests, and the
cluster merges their traces into the complete back-end trace (storage, RPC
and session records).  Every request and RPC is a trace row that carries its
server, process and metadata shard, so per-process and per-shard load is
read from the trace; the cluster keeps only the counters the trace does not
carry (session assignments, object-store accounting, notification pushes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backend.datastore import ObjectStore
from repro.backend.gateway import LoadBalancer, ProcessAddress
from repro.backend.latency import LatencyParameters, shard_skew_factors
from repro.backend.replay_shard import (
    PlannedShardWorkload,
    ProcessTotals,
    partition_members,
    process_slices,
    run_shards_supervised,
)
from repro.backend.uploadjob import UPLOAD_CHUNK_BYTES
from repro.faults.accounting import FaultAccounting
from repro.faults.mitigation import MitigationPolicy
from repro.faults.runtime import compile_plan
from repro.faults.spec import FaultPlan
from repro.trace.dataset import TraceDataset
from repro.util import telemetry
from repro.util.units import DAY
from repro.whatif.costs import StorageCostModel

__all__ = ["ClusterConfig", "U1Cluster"]


#: Machine names in the style of the production logfiles
#: (``production-whitecurrant-23-20140128``).
_MACHINE_NAMES = (
    "whitecurrant", "blackcurrant", "gooseberry",
    "raspberry", "elderberry", "cloudberry",
    "loganberry", "boysenberry",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and policy knobs of the simulated back-end."""

    seed: int = 0
    #: 6 physical machines run the API/RPC processes in production.
    api_machines: int = 6
    #: Processes per machine (8-16 in production; smaller by default to keep
    #: simulations fast while preserving the multi-process structure).
    processes_per_machine: int = 4
    #: 10 master-slave PostgreSQL shards.
    metadata_shards: int = 10
    #: Multipart chunk size used against Amazon S3.
    multipart_chunk_bytes: int = UPLOAD_CHUNK_BYTES
    #: File-level cross-user deduplication (Section 3.3).
    dedup_enabled: bool = True
    #: Delta updates are NOT implemented by the real U1 client; enabling them
    #: here quantifies the potential saving (ablation benchmark).
    delta_updates_enabled: bool = False
    delta_update_factor: float = 0.05
    #: Fraction of multipart uploads that are interrupted by the client and
    #: left for the uploadjob garbage collector.
    interrupted_upload_fraction: float = 0.02
    #: Interval of the uploadjob garbage-collection sweep.
    gc_interval: float = DAY
    #: Observed fraction of failing authentication requests.
    auth_failure_fraction: float = 0.0276
    #: Logical replay shards: plan members partition by a deterministic
    #: longest-processing-time assignment over their planned operation
    #: counts, and each shard owns a disjoint slice of users, stores and API
    #: processes.  This is a *model* knob, not a parallelism knob — the
    #: replayed trace is a pure function of the configuration and the plan,
    #: and ``replay_plan(n_jobs=...)`` only decides how many OS processes
    #: execute the shards.  Capped at the process count for tiny clusters.
    #: Note that cross-user dedup becomes per-shard (see
    #: :mod:`repro.backend.replay_shard`); ``replay_shards=1`` recovers the
    #: exact single-store semantics.
    replay_shards: int = 8
    #: Service-time distribution shape.
    latency: LatencyParameters = field(default_factory=LatencyParameters)
    #: Storage cost model used for bill estimates (the historical hardcoded
    #: ``$0.03/GB-month`` hot rate lives here now).
    cost_model: StorageCostModel = field(default_factory=StorageCostModel)
    #: Declarative infrastructure-fault timeline (see :mod:`repro.faults`);
    #: ``None`` replays a healthy cluster.  The plan is compiled once, in the
    #: planning pass, so fault exposure is a pure function of
    #: ``(plan, config)`` and the trace stays bit-identical at any
    #: ``n_jobs``.
    faults: FaultPlan | None = None
    #: Mitigation applied by the live request path when a fault fires
    #: (``none`` or ``retry``; the offline fault sweep evaluates the same
    #: policies and pins their counters counter-for-counter).
    mitigation: MitigationPolicy = field(default_factory=MitigationPolicy)

    def machine_names(self) -> list[str]:
        """Names of the API machines."""
        names = []
        for i in range(self.api_machines):
            base = _MACHINE_NAMES[i % len(_MACHINE_NAMES)]
            suffix = "" if i < len(_MACHINE_NAMES) else str(i // len(_MACHINE_NAMES))
            names.append(base + suffix)
        return names

    def process_addresses(self) -> list[ProcessAddress]:
        """Addresses of every API server process, in canonical order."""
        return [ProcessAddress(server=machine, process=proc)
                for machine in self.machine_names()
                for proc in range(self.processes_per_machine)]

    def effective_replay_shards(self) -> int:
        """Replay shard count after capping at the API process count."""
        return max(1, min(self.replay_shards,
                          self.api_machines * self.processes_per_machine))

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.api_machines <= 0 or self.processes_per_machine <= 0:
            raise ValueError("api_machines and processes_per_machine must be positive")
        if self.metadata_shards <= 0:
            raise ValueError("metadata_shards must be positive")
        if not 0.0 <= self.interrupted_upload_fraction < 1.0:
            raise ValueError("interrupted_upload_fraction must be in [0, 1)")
        if self.multipart_chunk_bytes <= 0:
            raise ValueError("multipart_chunk_bytes must be positive")
        if self.replay_shards <= 0:
            raise ValueError("replay_shards must be positive")
        self.cost_model.validate()
        if self.faults is not None:
            self.faults.validate(
                n_processes=self.api_machines * self.processes_per_machine,
                n_shards=self.metadata_shards)
        self.mitigation.validate()


class U1Cluster:
    """The simulated U1 back-end: drives the replay shards, keeps the totals.

    Every request is served inside a replay shard
    (:class:`~repro.backend.replay_shard.ReplayShard`), which assembles its
    own API processes, RPC workers and stores.  The cluster keeps what
    drives and summarises a replay: the configuration, the compiled fault
    schedule, the shard skew factors, the last replay's stats record and
    the counters the trace does not carry — the balancer's session
    assignments, the object store's accounting and per-process
    notification pushes, which only the shard summaries feed.
    """

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.config.validate()
        #: Per-metadata-shard service-time multipliers, shared by every
        #: replay shard's service-time model.
        self.shard_factors = shard_skew_factors(
            self.config.seed, self.config.metadata_shards, self.config.latency)
        addresses = self.config.process_addresses()
        #: Compiled fault timeline (``None`` on a healthy cluster); compiled
        #: once here — the planning pass — and shared verbatim with every
        #: replay shard so fault exposure is independent of ``n_jobs``.
        self.fault_schedule = (
            compile_plan(self.config.faults, n_processes=len(addresses),
                         n_shards=self.config.metadata_shards)
            if self.config.faults is not None else None)

        # Fleet counters, summed over every replay's shard summaries.
        self.object_store = ObjectStore(chunk_bytes=self.config.multipart_chunk_bytes)
        self.gateway = LoadBalancer(addresses)
        #: Per-process totals, in :meth:`ClusterConfig.process_addresses`
        #: order.
        self.processes = [ProcessTotals(address) for address in addresses]
        #: Timings and shape of the most recent :meth:`replay_plan` call.
        self.last_replay_stats: dict | None = None

    def replay_plan(self, plan, n_jobs: int = 1, *, policy=None, chaos=None,
                    checkpoint_dir=None, resume: bool = False, shutdown=None,
                    events_dir=None, progress=None) -> TraceDataset:
        """Materialize a workload plan and replay it through the back-end.

        ``plan`` is a :class:`~repro.workload.plan.WorkloadPlan` (from
        :meth:`~repro.workload.generator.SyntheticTraceGenerator.plan`).
        The replay is *sharded* (see :mod:`repro.backend.replay_shard`):
        plan members are LPT-assigned to logical shards by their planned
        operation and session counts, and every shard owns a disjoint slice
        of the users, the metadata/object stores and the API processes —
        mirroring the multi-process production fleet the paper measured.
        Each shard worker materializes its members' session scripts from
        their per-user RNG streams, then replays them: events from
        overlapping sessions interleave in global timestamp order, every
        session lives on the API process the shard's balancer picked at
        connect time, and uploadjob GC runs against the shard's own store.
        The per-shard sorted columnar blocks are merged column-wise into one
        :class:`~repro.trace.dataset.TraceDataset`.

        ``n_jobs`` chooses how many worker processes execute the shards
        (``1`` replays them sequentially in-process, which is also the
        fallback on platforms without ``fork``).  Materialization is a pure
        function of ``(config, plan member)``, and the assignment, the
        per-shard RNG streams and the merge depend only on the plan and the
        configuration, so the returned dataset is **bit-identical for any**
        ``n_jobs``.  Afterwards the per-shard counter summaries are added
        to this cluster's gateway, process totals and object store.

        Shards run under the crash-tolerant supervisor (``policy`` and
        ``chaos`` configure it); ``checkpoint_dir`` spills each completed
        shard as an atomic ``.npz`` under a run directory keyed by
        ``(config, workloads)`` with a write-ahead ``MANIFEST.json`` (the
        key, :func:`~repro.util.checkpoint.run_key`, is hashed only when a
        checkpoint store or the run-event log records it), and
        ``resume`` loads those checkpoints instead of re-executing finished
        shards.  ``shutdown`` threads a
        :class:`~repro.util.lifecycle.ShutdownController` into the
        supervisor for graceful interruption.  ``events_dir`` forces the
        run-event log into a directory even without checkpointing (with a
        checkpoint the log lives in the run directory); ``progress`` is the
        supervisor's live-progress callback.  None of these change the
        realised trace — quarantined shards (persistent failures) are the
        only way a merged dataset can be partial, and they are reported in
        ``last_replay_stats`` rather than raised.
        """
        from repro.util.checkpoint import (CheckpointStore,
                                           run_inputs_summary, run_key)

        started = time.perf_counter()
        slices = process_slices(self.config)
        n_shards = len(slices)
        # A shard needs at least one session per process it owns.
        workloads = [PlannedShardWorkload(plan, members)
                     for members in partition_members(plan, n_shards,
                                                      len(slices[0]))]
        key = (run_key(self.config, workloads)
               if checkpoint_dir is not None else None)
        checkpoint = (CheckpointStore(checkpoint_dir, key,
                                      n_shards=n_shards,
                                      inputs=run_inputs_summary(
                                          self.config, workloads))
                      if checkpoint_dir is not None else None)
        events_path = None
        if checkpoint is not None and not checkpoint.disabled:
            events_path = checkpoint.run_dir / telemetry.EVENTS_NAME
        elif events_dir is not None:
            directory = Path(events_dir)
            directory.mkdir(parents=True, exist_ok=True)
            events_path = directory / telemetry.EVENTS_NAME
        events = telemetry.EventLog(events_path)
        try:
            if events:
                events.emit("run-start",
                            run_key=key or run_key(self.config, workloads),
                            n_shards=n_shards, jobs=int(n_jobs))
            if self.fault_schedule is not None:
                for kind, win_start, win_end, detail in \
                        self.fault_schedule.iter_windows():
                    events.emit("fault-window", kind=kind,
                                start=win_start, end=win_end, **detail)
            with events.span("replay", n_shards=n_shards):
                outcomes, jobs_used, report = run_shards_supervised(
                    self.config, slices, self.shard_factors,
                    workloads, n_jobs=n_jobs,
                    fault_schedule=self.fault_schedule,
                    policy=policy, chaos=chaos,
                    checkpoint=checkpoint, resume=resume, shutdown=shutdown,
                    events=events, progress=progress)

            # The merge consumes the shard blocks; from here on the outcomes
            # carry only the counter summaries added below.
            blocks = [(o.storage, o.rpc, o.sessions) for o in outcomes]
            # Read-only rejections per metadata shard, over recorded rows.
            shard_errors = np.zeros(self.config.metadata_shards, dtype=int)
            for storage, _, _ in blocks:
                codes, kinds = storage.codes["error_kind"]
                read_only = np.array([kind == "shard_read_only"
                                      for kind in kinds], dtype=bool)[codes]
                shard_errors += np.bincount(
                    storage.cols["shard_id"][read_only],
                    minlength=len(shard_errors))
            for outcome in outcomes:
                outcome.storage = outcome.rpc = outcome.sessions = None
            merge_started = time.perf_counter()
            with events.span("merge"):
                dataset = TraceDataset.from_sorted_blocks(blocks)
            merge_seconds = time.perf_counter() - merge_started
        finally:
            events.close()

        for outcome in outcomes:
            for index, totals in outcome.process_counters.items():
                self.processes[index] = self.processes[index].plus(totals)
            self.gateway.absorb_totals(outcome.gateway_totals)
            self.object_store.absorb_summary(outcome.object_count,
                                             outcome.accounting)

        # This replay's fault counters, merged across its replay shards.
        replay_faults = FaultAccounting()
        for outcome in outcomes:
            if outcome.faults is not None:
                replay_faults.merge(outcome.faults)

        totals = [outcome.total_seconds for outcome in outcomes]
        mean_total = sum(totals) / max(len(totals), 1)
        self.last_replay_stats = {
            "n_jobs": jobs_used,
            "n_shards": n_shards,
            "shard_seconds": [outcome.seconds for outcome in outcomes],
            "shard_generate_seconds": [outcome.generate_seconds
                                       for outcome in outcomes],
            "shard_total_seconds": totals,
            #: max/mean per-shard (generate + replay) seconds — 1.0 is a
            #: perfectly balanced fleet; the critical-path shard bounds how
            #: far ``n_jobs`` can scale.
            "shard_imbalance": (max(totals) / mean_total
                                if mean_total > 0 else 1.0),
            "ipc_block_bytes": sum(outcome.ipc_bytes for outcome in outcomes),
            #: Replay sub-phase breakdown (per shard, same order as
            #: ``shard_seconds``): struct-of-arrays timeline assembly,
            #: object-free dispatch, column packing.
            "shard_block_build_seconds": [outcome.block_build_seconds
                                          for outcome in outcomes],
            "shard_dispatch_seconds": [outcome.dispatch_seconds
                                       for outcome in outcomes],
            "shard_pack_seconds": [outcome.pack_seconds
                                   for outcome in outcomes],
            "events_replayed": sum(outcome.n_events for outcome in outcomes),
            "merge_seconds": merge_seconds,
            "replay_seconds": time.perf_counter() - started,
            "gc_sweeps": sum(outcome.gc_sweeps for outcome in outcomes),
            #: Last timeline timestamp across the shards — the end instant
            #: the offline what-if sweep measures idle time against.
            "timeline_end": max((outcome.timeline_end for outcome in outcomes),
                                default=0.0),
            #: Fault-exposure counters of *this* replay (merged across the
            #: replay shards; empty dict values on a healthy cluster), the
            #: per-replay-shard breakdown, and the mutations each metadata
            #: shard rejected while read-only — surfaced here so callers
            #: never reach into shards.
            "fault_counters": replay_faults.as_dict(),
            "shard_fault_counters": [
                outcome.faults.as_dict() if outcome.faults is not None else {}
                for outcome in outcomes],
            "metadata_shard_errors": shard_errors.tolist(),
            #: Where the shard checkpoints live (``None`` when disabled).
            "checkpoint_dir": (str(checkpoint.run_dir)
                               if checkpoint is not None else None),
            #: Why checkpointing degraded to in-memory mid-run (``None``
            #: while healthy — see the ENOSPC guard in the store).
            "checkpoint_disabled": (checkpoint.disabled_reason
                                    if checkpoint is not None else None),
            #: Where the run-event log was written (``None`` when no
            #: checkpoint run dir and no explicit ``events_dir``).
            "events_path": str(events_path) if events_path is not None
                           else None,
        }
        #: Supervision accounting: completion order, per-shard retry counts,
        #: failure records, quarantined shard ids, resumed/checkpointed
        #: shard ids (see ``SupervisionReport.as_stats``).
        self.last_replay_stats.update(report.as_stats())
        return dataset
