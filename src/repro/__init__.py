"""repro — reproduction of "Dissecting UbuntuOne" (IMC 2015).

This package implements, end to end, the system studied by Gracia-Tinedo et
al. in *Dissecting UbuntuOne: Autopsy of a Global-scale Personal Cloud
Back-end* (IMC 2015):

* :mod:`repro.backend` — a discrete-event simulator of the UbuntuOne (U1)
  back-end: gateway/load balancer, API server processes, RPC database
  workers, a sharded metadata store, an S3-like object store, the OAuth-style
  authentication service, the notification bus and the multipart-upload
  ("uploadjob") state machine.
* :mod:`repro.workload` — a statistical workload generator that reproduces
  the empirical models reported in the paper (diurnal activity, Zipf-skewed
  per-user traffic, power-law inter-operation times, per-extension file
  sizes, file updates, duplication, session lengths, DDoS episodes, ...).
* :mod:`repro.trace` — the trace substrate: record schema, logfile naming,
  CSV serialisation, anonymisation and the dataset container the analyses
  consume.
* :mod:`repro.core` — the analyses themselves, one module per figure/table
  of the paper's evaluation (storage workload, file behaviour, user
  behaviour, back-end performance).

Quickstart::

    from repro import quick_dataset
    from repro.core import summary

    dataset = quick_dataset(users=500, days=3, seed=7)
    print(summary.trace_summary(dataset))
"""

from __future__ import annotations

from repro._version import __version__
from repro.trace.dataset import TraceDataset
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTraceGenerator
from repro.backend.cluster import ClusterConfig, U1Cluster


def quick_dataset(users: int = 200, days: float = 2.0,
                  seed: int = 0) -> TraceDataset:
    """Generate a small synthetic U1 trace in one call.

    This is a convenience wrapper used by the examples and the test-suite:
    it builds a :class:`~repro.workload.config.WorkloadConfig` scaled down to
    ``users`` users over ``days`` days, runs the workload through the
    back-end simulator and returns the resulting
    :class:`~repro.trace.dataset.TraceDataset`.
    """
    config = WorkloadConfig.scaled(users=users, days=days, seed=seed)
    cluster = U1Cluster(ClusterConfig(seed=seed))
    return cluster.replay_plan(SyntheticTraceGenerator(config).plan())


__all__ = [
    "__version__",
    "TraceDataset",
    "WorkloadConfig",
    "SyntheticTraceGenerator",
    "ClusterConfig",
    "U1Cluster",
    "quick_dataset",
]
