"""File-based deduplication analysis (Section 5.3, Fig. 4a).

U1 applies file-level cross-user deduplication: the client sends the SHA-1 of
a file before uploading and the back-end links the new file to existing
content when possible.  The paper measures a deduplication ratio of 0.171
over the month (17 % of the files' data could be deduplicated) and shows that
the distribution of duplicates per content hash has a long tail: ~80 % of
contents have no duplicate at all while a few popular contents (songs)
account for a very large number of logical copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.dataset import OPERATION_CODE, TraceDataset
from repro.trace.records import ApiOperation

__all__ = ["DeduplicationAnalysis", "deduplication_analysis"]


@dataclass(frozen=True)
class DeduplicationAnalysis:
    """Deduplication ratios and the duplicates-per-hash distribution."""

    #: Number of upload operations per distinct content hash.
    copies_per_hash: np.ndarray
    #: Bytes of the first upload of each distinct hash (unique data).
    unique_bytes: int
    #: Total uploaded bytes across all uploads carrying a hash.
    total_bytes: int
    #: Total number of uploads carrying a content hash.
    total_files: int

    @property
    def unique_contents(self) -> int:
        """Number of distinct content hashes observed."""
        return int(self.copies_per_hash.size)

    @property
    def byte_dedup_ratio(self) -> float:
        """``1 - unique_bytes / total_bytes`` (the paper's dr, data-based)."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.unique_bytes / self.total_bytes

    @property
    def file_dedup_ratio(self) -> float:
        """``1 - unique_files / total_files`` (count-based dr)."""
        if self.total_files == 0:
            return 0.0
        return 1.0 - self.unique_contents / self.total_files

    @property
    def fraction_without_duplicates(self) -> float:
        """Share of contents uploaded exactly once (paper: ~80 %)."""
        if self.copies_per_hash.size == 0:
            return 0.0
        return float(np.mean(self.copies_per_hash == 1))

    @property
    def max_copies(self) -> int:
        """Largest number of copies observed for a single content."""
        if self.copies_per_hash.size == 0:
            return 0
        return int(self.copies_per_hash.max())

    def storage_saved_bytes(self) -> int:
        """Bytes that file-level deduplication avoids storing."""
        return self.total_bytes - self.unique_bytes


def deduplication_analysis(dataset: TraceDataset,
                           include_attacks: bool = False) -> DeduplicationAnalysis:
    """Compute the Fig. 4a deduplication analysis from upload records."""
    source = dataset if include_attacks else dataset.without_attack_traffic()
    # Columnar fast path: factorise the content hashes once, then count
    # copies per hash and take the size of each hash's first occurrence.
    hash_codes, hashes = source.storage_codes("content_hash")
    upload_mask = (source.storage_column("operation")
                   == OPERATION_CODE[ApiOperation.UPLOAD])
    has_hash = np.asarray([bool(h) for h in hashes], dtype=bool)
    mask = upload_mask & has_hash[hash_codes]
    codes = hash_codes[mask]
    sizes = source.storage_column("size_bytes")[mask]
    if codes.size == 0:
        return DeduplicationAnalysis(copies_per_hash=np.empty(0),
                                     unique_bytes=0, total_bytes=0,
                                     total_files=0)
    distinct, first_positions = np.unique(codes, return_index=True)
    copies = np.bincount(codes)[distinct]
    return DeduplicationAnalysis(
        copies_per_hash=np.sort(copies).astype(float),
        unique_bytes=int(sizes[first_positions].sum()),
        total_bytes=int(sizes.sum()),
        total_files=int(codes.size),
    )
