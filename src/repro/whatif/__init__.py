"""Storage-economics subsystem: tiered storage + offline what-if sweeps.

Two coupled halves (Section 9 of the paper):

* the **policy and cost vocabulary** — :class:`~repro.whatif.tiering.
  TieringPolicy` with its :class:`~repro.whatif.tiering.TierEngine`, and
  :class:`~repro.whatif.costs.StorageCostModel`, which the live back-end
  shares (``ClusterConfig.cost_model`` prices its single-tier
  :class:`~repro.backend.datastore.ObjectStore`).  Tiering is an offline
  what-if only: the engine runs over the simulator's tier-event log;
* the **offline what-if simulator** (:mod:`repro.whatif.simulator`,
  :mod:`repro.whatif.sweep`, :mod:`repro.whatif.economics`) which replays
  storage policies directly over :class:`~repro.trace.dataset.TraceDataset`
  columns — no back-end replay — so a sweep of N policies costs one replay
  plus N cheap columnar passes.

Only the leaf vocabulary modules are imported eagerly (the back-end imports
the cost model while this package initialises); the simulator half loads
lazily on first attribute access to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.whatif.costs import StorageCostModel
from repro.whatif.tiering import EVICTION_POLICIES, TieringPolicy

__all__ = [
    "EVICTION_POLICIES",
    "PolicyOutcome",
    "PolicySpec",
    "StorageCostModel",
    "StorageEconomics",
    "StorageTrace",
    "SweepResult",
    "TieringPolicy",
    "default_policies",
    "run_sweep",
    "simulate_policy",
    "storage_economics",
]

#: Lazily resolved simulator-half exports: name -> home module.
_LAZY = {
    "PolicyOutcome": "repro.whatif.simulator",
    "PolicySpec": "repro.whatif.simulator",
    "StorageTrace": "repro.whatif.simulator",
    "simulate_policy": "repro.whatif.simulator",
    "SweepResult": "repro.whatif.sweep",
    "default_policies": "repro.whatif.sweep",
    "run_sweep": "repro.whatif.sweep",
    "StorageEconomics": "repro.whatif.economics",
    "storage_economics": "repro.whatif.economics",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
