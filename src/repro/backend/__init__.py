"""Discrete-event simulator of the UbuntuOne back-end (Section 3).

The real U1 back-end lives in a single Canonical datacenter and consists of:

* a **system gateway** (load balancer) through which every client request
  enters (:mod:`repro.backend.gateway`);
* **API server processes** (6 machines, 8-16 processes each) that hold the
  persistent TCP connection with desktop clients, authenticate them,
  translate client commands into RPC calls and shuttle file contents to and
  from Amazon S3 (:mod:`repro.backend.api_server`);
* **RPC database workers** that translate RPC calls into queries against the
  correct metadata shard (:mod:`repro.backend.rpc_server`);
* a **metadata store**: a PostgreSQL cluster of 20 machines configured as 10
  master-slave shards, routed by user id (:mod:`repro.backend.shard`,
  :mod:`repro.backend.metadata_store`);
* **Amazon S3** for the actual file contents, accessed through the multipart
  upload API and the *uploadjob* state machine of Appendix A
  (:mod:`repro.backend.datastore`, :mod:`repro.backend.uploadjob`);
* the shared Canonical **authentication service** (OAuth tokens,
  :mod:`repro.backend.auth`) and the **RabbitMQ notification bus** used to
  propagate events between API servers (:mod:`repro.backend.notifications`).

Each replay shard (:class:`repro.backend.replay_shard.ReplayShard`) wires
its slice of the above together and serves its share of the requests.
:class:`repro.backend.cluster.U1Cluster` drives the shards through a
workload plan (from :mod:`repro.workload`), merges their output into a
fully populated :class:`~repro.trace.dataset.TraceDataset`, including the
RPC service times and server/shard placement needed by the back-end
analyses (Figs. 12-15), and sums their counters into the fleet totals.
"""

from repro.backend.cluster import ClusterConfig, U1Cluster
from repro.backend.datastore import ObjectStore
from repro.backend.auth import AuthenticationService
from repro.backend.notifications import NotificationBus
from repro.backend.metadata_store import ShardedMetadataStore
from repro.backend.uploadjob import UploadJob, UploadJobState
from repro.backend.latency import ServiceTimeModel

__all__ = [
    "ClusterConfig",
    "U1Cluster",
    "ObjectStore",
    "AuthenticationService",
    "NotificationBus",
    "ShardedMetadataStore",
    "UploadJob",
    "UploadJobState",
    "ServiceTimeModel",
]
