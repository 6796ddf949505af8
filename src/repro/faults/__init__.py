"""Infrastructure fault injection + offline mitigation-policy sweeps.

Fault injection
---------------

The healthy-fleet model of the paper's back-end analysis gains a failure
dimension: a declarative, seed-deterministic **fault timeline**
(:class:`~repro.faults.spec.FaultPlan`) describes degraded/flapping API
processes, lossy links, a metadata shard in read-only mode, storage-node
outages with optional replica failover, and auth outages — all scheduled
against the *global* trace clock.  ``ClusterConfig.faults`` compiles the
plan once in the planning pass (:func:`~repro.faults.runtime.compile_plan`)
and hands the same immutable :class:`~repro.faults.runtime.FaultSchedule`
to every replay shard, so sharded and fused replays see **bit-identical
fault exposure at any ``--jobs``**.

Three design rules keep the replay contract intact:

* **no RNG streams** — every fault decision is a pure hash of trace-visible
  request fields (splitmix-style identity hash for lossy links,
  ``crc32(content_hash) % n_nodes`` for storage placement), so the
  zero-fault draw sequence is untouched and every decision is recomputable
  offline;
* **fail before dispatch** — a fault-hit request fails *before* its
  handler runs: no metadata/store side effects, no RPC rows, just a storage
  record carrying the new ``error_kind``/``retries`` outcome columns;
* **open loop** — retry backoff is accounted
  (:class:`~repro.faults.accounting.FaultAccounting`), never added to the
  replay clock.

Mitigation sweeps mirror :mod:`repro.whatif`: ``python -m repro faultsweep``
replays one faulted trace, then evaluates
:class:`~repro.faults.mitigation.MitigationPolicy` configurations (doing
nothing, and retry budgets with exponential backoff) *offline* over the
trace columns (:mod:`repro.faults.simulator`, :mod:`repro.faults.sweep`),
reporting user-visible error rate, p99/p999 latency inflation and a
linkguardian-style penalty score per policy.  Every policy kind is one the
live request path runs too, and both sides run one fault procedure
(:mod:`repro.faults.runtime`), so the offline accounting pins
counter-for-counter against a live replay under the same policy.

Only the leaf vocabulary modules (spec, accounting, mitigation) are
imported eagerly — the back-end imports them while this package
initialises; the runtime and the offline simulator half load lazily to
keep the import graph acyclic.
"""

from __future__ import annotations

from repro.faults.accounting import FaultAccounting
from repro.faults.mitigation import MitigationPolicy, default_mitigations
from repro.faults.spec import (
    AuthOutage,
    DegradedProcess,
    FaultPlan,
    LossyLink,
    ReadOnlyShard,
    StorageNodeOutage,
    default_fault_plan,
    flapping,
)

__all__ = [
    "AuthOutage",
    "DegradedProcess",
    "FaultAccounting",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FaultSweepResult",
    "FaultTrace",
    "LossyLink",
    "MitigationOutcome",
    "MitigationPolicy",
    "ReadOnlyShard",
    "StorageNodeOutage",
    "compile_plan",
    "default_fault_plan",
    "default_mitigations",
    "flapping",
    "request_disposition",
    "run_fault_sweep",
    "simulate_mitigation",
]

#: Lazily resolved runtime/simulator exports: name -> home module.
_LAZY = {
    "FaultInjector": "repro.faults.runtime",
    "FaultSchedule": "repro.faults.runtime",
    "compile_plan": "repro.faults.runtime",
    "request_disposition": "repro.faults.runtime",
    "FaultTrace": "repro.faults.simulator",
    "MitigationOutcome": "repro.faults.simulator",
    "simulate_mitigation": "repro.faults.simulator",
    "FaultSweepResult": "repro.faults.sweep",
    "run_fault_sweep": "repro.faults.sweep",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
