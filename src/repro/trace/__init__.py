"""Trace substrate: record schema, logfiles, dataset container.

The U1 measurement (Section 4 of the paper) is built from per-process
logfiles captured at the API and RPC server stages.  Each logfile is strictly
sequential and timestamped, named ``production-<host>-<proc>-<YYYYMMDD>``;
the merged trace contains three request types:

* ``storage`` / ``storage_done`` — API operations issued by desktop clients
  (uploads, downloads, makes, unlinks, ...), captured here as
  :class:`~repro.trace.records.StorageRecord`.
* ``rpc`` — the translation of API operations into RPC calls against the
  metadata store, captured as :class:`~repro.trace.records.RpcRecord`
  together with the measured service time and the shard contacted.
* ``session`` — session management (connects, disconnects, authentication),
  captured as :class:`~repro.trace.records.SessionRecord`.

:class:`~repro.trace.dataset.TraceDataset` is the in-memory container the
analyses in :mod:`repro.core` consume; :mod:`repro.trace.logfile` provides the
CSV logfile serialisation; :mod:`repro.trace.anonymize` reproduces the
anonymisation Canonical applied before releasing the dataset.
"""

from repro.trace.records import (
    ApiOperation,
    NodeKind,
    RpcClass,
    RpcName,
    RpcRecord,
    SessionEvent,
    SessionRecord,
    StorageRecord,
    VolumeType,
    TRACE_EPOCH,
)
from repro.trace.dataset import TraceDataset
from repro.trace.logfile import LogfileName, read_trace_directory, write_trace_directory
from repro.trace.anonymize import Anonymizer
from repro.trace.stats import TraceSummary, summarize

__all__ = [
    "ApiOperation",
    "NodeKind",
    "RpcClass",
    "RpcName",
    "RpcRecord",
    "SessionEvent",
    "SessionRecord",
    "StorageRecord",
    "VolumeType",
    "TRACE_EPOCH",
    "TraceDataset",
    "LogfileName",
    "read_trace_directory",
    "write_trace_directory",
    "Anonymizer",
    "TraceSummary",
    "summarize",
]
