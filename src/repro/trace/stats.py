"""Trace summary statistics (Table 3 of the paper).

Table 3 summarises the released trace: duration, number of back-end servers
traced, unique user ids, unique files, user sessions, transfer operations and
total upload/download traffic.  :func:`summarize` computes the same rows from
any :class:`~repro.trace.dataset.TraceDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import NODE_KIND_CODE, OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation, NodeKind
from repro.util.distinct import distinct
from repro.util.units import DAY, format_bytes

__all__ = ["TraceSummary", "summarize"]


@dataclass(frozen=True)
class TraceSummary:
    """The rows of Table 3."""

    duration_days: float
    servers_traced: int
    unique_users: int
    unique_files: int
    user_sessions: int
    transfer_operations: int
    upload_bytes: int
    download_bytes: int

    def rows(self) -> list[tuple[str, str]]:
        """Human-readable rows in the same order as Table 3."""
        return [
            ("Trace duration", f"{self.duration_days:.1f} days"),
            ("Back-end servers traced", str(self.servers_traced)),
            ("Unique user IDs", f"{self.unique_users:,}"),
            ("Unique files", f"{self.unique_files:,}"),
            ("User sessions", f"{self.user_sessions:,}"),
            ("Transfer operations", f"{self.transfer_operations:,}"),
            ("Total upload traffic", format_bytes(self.upload_bytes)),
            ("Total download traffic", format_bytes(self.download_bytes)),
        ]

    def __str__(self) -> str:
        width = max(len(label) for label, _ in self.rows())
        return "\n".join(f"{label:<{width}}  {value}" for label, value in self.rows())


def summarize(dataset: TraceDataset) -> TraceSummary:
    """Compute the Table 3 summary of ``dataset`` (columnar fast paths)."""
    if dataset.is_empty:
        raise ValueError("cannot summarise an empty dataset")
    start, end = dataset.time_span()
    servers: set[str] = set()
    for stream in (dataset._storage, dataset._rpc, dataset._sessions):
        if len(stream):
            servers.update(stream.distinct("server"))
    node_ids = dataset.storage_column("node_id")
    kinds = dataset.storage_column("node_kind")
    file_mask = (node_ids != 0) & (kinds == NODE_KIND_CODE[NodeKind.FILE])
    unique_files = distinct(node_ids[file_mask])
    op_codes = dataset.storage_column("operation")
    n_uploads = int(np.sum(op_codes == OPERATION_CODE[ApiOperation.UPLOAD]))
    n_downloads = int(np.sum(op_codes == OPERATION_CODE[ApiOperation.DOWNLOAD]))
    return TraceSummary(
        duration_days=(end - start) / DAY,
        servers_traced=len(servers),
        unique_users=dataset.user_count(),
        unique_files=int(unique_files.size),
        user_sessions=dataset.session_count(),
        transfer_operations=n_uploads + n_downloads,
        upload_bytes=dataset.upload_bytes(),
        download_bytes=dataset.download_bytes(),
    )
