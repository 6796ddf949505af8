"""Vectorised storage-economics summary for the consolidated report.

A deliberately cheap, columns-only estimate of the Section 9 levers (dedup,
delta updates, cold tiering) that the full report can afford to print on
every run — a handful of sort-based distinct passes over the storage
columns, no sequential simulation.  The full policy sweep lives in
:mod:`repro.whatif.sweep` (``python -m repro whatif``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation
from repro.util.distinct import distinct
from repro.util.units import DAY, GB
from repro.whatif.costs import StorageCostModel

__all__ = ["StorageEconomics", "storage_economics"]


@dataclass(frozen=True)
class StorageEconomics:
    """Column-level estimates of the Section 9 cost levers.

    ``unique_content_bytes`` is the estimated footprint of a deduplicated
    store (first-seen size per distinct content hash across uploads and
    downloads — pre-trace contents discovered by downloads occupy storage
    too — plus per-node first sizes for hash-less uploads);
    ``unique_upload_bytes`` restricts that to uploaded contents, making it
    comparable with ``upload_bytes`` (the logical upload volume) for the
    dedup lever.  ``update_upload_bytes`` is the upload volume caused by
    re-uploads of existing files (the delta-update lever), and
    ``cold_candidate_bytes`` the unique bytes idle for longer than
    ``cold_after`` at the end of the trace (the tiering lever).
    """

    upload_bytes: int
    unique_content_bytes: int
    unique_upload_bytes: int
    update_upload_bytes: int
    cold_candidate_bytes: int
    cold_after: float
    monthly_flat: float
    monthly_tiered: float

    @property
    def dedup_saving_share(self) -> float:
        """Upload bytes dedup avoids storing (paper: ~17 %)."""
        if self.upload_bytes == 0:
            return 0.0
        return max(0.0, 1.0 - self.unique_upload_bytes / self.upload_bytes)

    @property
    def update_share(self) -> float:
        """Share of upload traffic caused by updates (paper: 18.5 %)."""
        return (self.update_upload_bytes / self.upload_bytes
                if self.upload_bytes else 0.0)

    @property
    def cold_candidate_share(self) -> float:
        """Cold-candidate share of the unique content bytes."""
        return (self.cold_candidate_bytes / self.unique_content_bytes
                if self.unique_content_bytes else 0.0)


def storage_economics(dataset: TraceDataset,
                      cost_model: StorageCostModel | None = None,
                      cold_after: float = DAY,
                      include_attacks: bool = False) -> StorageEconomics:
    """Estimate the Section 9 cost levers from the storage columns.

    Attack traffic is excluded by default, like every other workload
    characterisation in the report (the DDoS download floods would swamp
    the levers); the full offline sweep keeps it, since the store serves
    it either way.
    """
    cost_model = cost_model or StorageCostModel()
    source = dataset if include_attacks else dataset.without_attack_traffic()
    empty = StorageEconomics(upload_bytes=0, unique_content_bytes=0,
                             unique_upload_bytes=0, update_upload_bytes=0,
                             cold_candidate_bytes=0, cold_after=cold_after,
                             monthly_flat=0.0, monthly_tiered=0.0)
    if len(source._storage) == 0:  # noqa: SLF001 - cheap length probe
        return empty

    ops = source.storage_column("operation")
    sizes = source.storage_column("size_bytes")
    nodes = source.storage_column("node_id")
    ts = source.storage_column("timestamp")
    hash_codes, categories = source.storage_codes("content_hash")
    try:
        empty_hash = categories.index("")
    except ValueError:
        empty_hash = -1

    uploads = ops == OPERATION_CODE[ApiOperation.UPLOAD]
    downloads = ops == OPERATION_CODE[ApiOperation.DOWNLOAD]
    upload_bytes = int(sizes[uploads].sum())
    update_upload_bytes = int(
        sizes[uploads & source.storage_column("is_update")].sum())

    # Unique content footprint: first-seen size per distinct hash over every
    # transfer (downloads included — pre-trace contents occupy storage too),
    # plus per-node first sizes for the hash-less uploads.
    transfers = (uploads | downloads) & (hash_codes != empty_hash)
    codes_t = hash_codes[transfers]
    sizes_t = sizes[transfers]
    ts_t = ts[transfers]
    if codes_t.size:
        unique_codes, first = np.unique(codes_t, return_index=True)
        unique_sizes = sizes_t[first]
        last_access = np.zeros(unique_codes.size, dtype=np.float64)
        np.maximum.at(last_access, np.searchsorted(unique_codes, codes_t),
                      ts_t)
        # Contents that were actually uploaded in-trace (vs pre-trace
        # contents only seen through downloads): the dedup-lever numerator.
        uploaded_codes = distinct(hash_codes[uploads
                                             & (hash_codes != empty_hash)])
        was_uploaded = np.isin(unique_codes, uploaded_codes)
    else:
        unique_sizes = np.zeros(0, dtype=np.int64)
        last_access = np.zeros(0, dtype=np.float64)
        was_uploaded = np.zeros(0, dtype=bool)
    anon = uploads & (hash_codes == empty_hash)
    anon_nodes = nodes[anon]
    if anon_nodes.size:
        _, anon_first = np.unique(anon_nodes, return_index=True)
        anon_bytes = int(sizes[anon][anon_first].sum())
    else:
        anon_bytes = 0
    unique_bytes = int(unique_sizes.sum()) + anon_bytes
    unique_upload_bytes = int(unique_sizes[was_uploaded].sum()) + anon_bytes

    end = float(ts.max())
    cold_bytes = int(unique_sizes[last_access < end - cold_after].sum())

    hot_rate = cost_model.hot_dollars_per_gb_month
    cold_rate = cost_model.cold_dollars_per_gb_month
    return StorageEconomics(
        upload_bytes=upload_bytes,
        unique_content_bytes=unique_bytes,
        unique_upload_bytes=unique_upload_bytes,
        update_upload_bytes=update_upload_bytes,
        cold_candidate_bytes=cold_bytes,
        cold_after=cold_after,
        monthly_flat=unique_bytes / GB * hot_rate,
        monthly_tiered=((unique_bytes - cold_bytes) / GB * hot_rate
                        + cold_bytes / GB * cold_rate))
