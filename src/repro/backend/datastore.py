"""The data store: an Amazon S3 stand-in (Section 3.4, Appendix A).

U1 stores all file contents in Amazon S3 (us-east) and keeps only metadata in
its own datacenter.  The simulator does not store real bytes; it keeps a
content-addressed index of object sizes, supports the multipart upload API
the uploadjob machinery drives, and tracks the accounting figures the paper
discusses (bytes stored, bytes transferred, per-month storage bill estimate,
savings from file-level deduplication).

Tier counters (Section 9)
-------------------------
:class:`StorageAccounting` carries hot/cold tier fields, but this store
never moves an object between tiers: hot/cold tiering is an offline
what-if only.  :mod:`repro.whatif.simulator` drives the what-if
``TierEngine`` from the tier events its metadata pass records and writes
the engine's counters into a copy of the untiered accounting.  On a live replay the tier fields stay 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.backend.errors import InvalidTransitionError, UnknownContentError
from repro.backend.uploadjob import UPLOAD_CHUNK_BYTES
from repro.whatif.costs import StorageCostModel

__all__ = ["ObjectStore", "MultipartUpload", "StorageAccounting"]


@dataclass
class MultipartUpload:
    """Server-side state of an in-flight S3 multipart upload."""

    multipart_id: str
    key: str
    declared_bytes: int
    received_bytes: int = 0
    parts: list[int] = field(default_factory=list)
    completed: bool = False
    aborted: bool = False

    def add_part(self, size: int) -> int:
        """Register one part; returns its 1-based part number."""
        if self.completed or self.aborted:
            raise InvalidTransitionError("multipart upload already finished")
        if size <= 0:
            raise ValueError("part size must be positive")
        self.parts.append(size)
        self.received_bytes += size
        return len(self.parts)


@dataclass
class StorageAccounting:
    """Running totals kept by the object store."""

    bytes_stored: int = 0
    logical_bytes: int = 0
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0
    put_requests: int = 0
    get_requests: int = 0
    delete_requests: int = 0
    dedup_hits: int = 0
    # ------------------------------------------------- tiering (Section 9)
    #: Bytes resident in the hot tier.  Only a what-if outcome sets the
    #: tier fields; a live store leaves them 0, and ``bytes_stored -
    #: cold_bytes`` is the billable hot occupancy either way.
    hot_bytes: int = 0
    #: Bytes currently resident in the cold tier.
    cold_bytes: int = 0
    #: Downloads served from the hot tier.
    hot_hits: int = 0
    #: Downloads served from the cold tier (each pays a retrieval).
    cold_hits: int = 0
    #: Bytes read back out of the cold tier.
    cold_retrieved_bytes: int = 0
    #: Cumulative bytes demoted hot -> cold.
    migrated_cold_bytes: int = 0
    #: Cumulative bytes promoted cold -> hot.
    migrated_hot_bytes: int = 0
    #: Number of tier migrations (both directions).
    migrations: int = 0
    # -------------------------------------------- fault injection (faults)
    #: Transfers served by a surviving replica while the content's primary
    #: storage node was down (``StorageNodeOutage`` with failover on).
    failover_reads: int = 0
    #: Bytes those failover transfers moved.
    failover_bytes: int = 0

    @property
    def dedup_saved_bytes(self) -> int:
        """Bytes that deduplication avoided storing."""
        return self.logical_bytes - self.bytes_stored

    @property
    def hot_hit_rate(self) -> float:
        """Fraction of downloads served from the hot tier.

        1.0 when nothing was ever downloaded (or on a single-tier store,
        which counts no tier hits): every download it serves is hot.
        """
        total = self.hot_hits + self.cold_hits
        return self.hot_hits / total if total else 1.0

    def monthly_cost_estimate(self,
                              cost_model: StorageCostModel | None = None) -> float:
        """Monthly storage bill estimate (the paper cites ~$20k/month).

        ``cost_model`` defaults to :class:`~repro.whatif.costs.StorageCostModel`'s
        defaults.  Cold-resident bytes are billed at the cold rate, the rest
        at the hot rate.
        """
        if cost_model is None:
            cost_model = StorageCostModel()
        return cost_model.storage_monthly_cost(self)

    def merge(self, other: "StorageAccounting") -> None:
        """Fold another accounting (e.g. one replay shard's) into this one."""
        self.bytes_stored += other.bytes_stored
        self.logical_bytes += other.logical_bytes
        self.bytes_uploaded += other.bytes_uploaded
        self.bytes_downloaded += other.bytes_downloaded
        self.put_requests += other.put_requests
        self.get_requests += other.get_requests
        self.delete_requests += other.delete_requests
        self.dedup_hits += other.dedup_hits
        self.hot_bytes += other.hot_bytes
        self.cold_bytes += other.cold_bytes
        self.hot_hits += other.hot_hits
        self.cold_hits += other.cold_hits
        self.cold_retrieved_bytes += other.cold_retrieved_bytes
        self.migrated_cold_bytes += other.migrated_cold_bytes
        self.migrated_hot_bytes += other.migrated_hot_bytes
        self.migrations += other.migrations
        self.failover_reads += other.failover_reads
        self.failover_bytes += other.failover_bytes


class ObjectStore:
    """Content-addressed object store with multipart uploads and refcounts.

    Contents are keyed by their (client-provided SHA-1) hash; multiple nodes
    across users may reference the same content, which is exactly the
    file-level cross-user deduplication U1 applies.
    """

    def __init__(self, chunk_bytes: int = UPLOAD_CHUNK_BYTES):
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self._chunk_bytes = chunk_bytes
        self._objects: dict[str, int] = {}
        self._refcounts: dict[str, int] = {}
        self._multiparts: dict[str, MultipartUpload] = {}
        self._multipart_ids = itertools.count(1)
        self._absorbed_objects = 0
        self.accounting = StorageAccounting()

    # ------------------------------------------------------------- queries
    def __contains__(self, content_hash: str) -> bool:
        return content_hash in self._objects

    def __len__(self) -> int:
        return len(self._objects) + self._absorbed_objects

    def absorb_summary(self, n_objects: int,
                       accounting: StorageAccounting) -> None:
        """Fold one replay shard's object-store outcome into this store.

        The sharded replay engine gives every shard its own store (shards own
        disjoint users, so cross-shard state never interacts during a run);
        workers ship back only ``(object count, accounting)`` summaries —
        cheap to pickle — and the cluster-level store absorbs them so
        fleet-wide accounting (bytes stored, dedup hits, cost estimates)
        keeps working after a sharded replay.
        """
        self._absorbed_objects += n_objects
        self.accounting.merge(accounting)

    def size_of(self, content_hash: str) -> int:
        """Size in bytes of a stored content."""
        try:
            return self._objects[content_hash]
        except KeyError:
            raise UnknownContentError(content_hash) from None

    # ---------------------------------------------------------- simple put
    def put(self, content_hash: str, size_bytes: int) -> bool:
        """Store a content in a single request (small files).

        Returns True when bytes actually had to be transferred, False when
        the content already existed (deduplicated upload).
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self.accounting.put_requests += 1
        self.accounting.logical_bytes += size_bytes
        self._refcounts[content_hash] = self._refcounts.get(content_hash, 0) + 1
        if content_hash in self._objects:
            self.accounting.dedup_hits += 1
            return False
        self._objects[content_hash] = size_bytes
        self.accounting.bytes_stored += size_bytes
        self.accounting.bytes_uploaded += size_bytes
        return True

    def link(self, content_hash: str) -> None:
        """Add a logical reference to an existing content (dedup hit)."""
        if content_hash not in self._objects:
            raise UnknownContentError(content_hash)
        self._refcounts[content_hash] = self._refcounts.get(content_hash, 0) + 1
        self.accounting.logical_bytes += self._objects[content_hash]
        self.accounting.dedup_hits += 1

    def get(self, content_hash: str) -> int:
        """Download a content; returns the number of bytes transferred.

        A replay shard sums its downloads' ``get_requests`` and
        ``bytes_downloaded`` in its dispatch loop instead of calling this
        per download; the what-if metadata pass calls it.
        """
        size = self.size_of(content_hash)
        self.accounting.get_requests += 1
        self.accounting.bytes_downloaded += size
        return size

    def unlink(self, content_hash: str) -> bool:
        """Drop one reference; the object is deleted when unreferenced.

        Returns True when the object was physically removed.
        """
        if content_hash not in self._objects:
            return False
        refs = self._refcounts.get(content_hash, 0)
        self.accounting.delete_requests += 1
        if refs > 1:
            self._refcounts[content_hash] = refs - 1
            self.accounting.logical_bytes -= self._objects[content_hash]
            return False
        size = self._objects.pop(content_hash)
        self._refcounts.pop(content_hash, None)
        self.accounting.bytes_stored -= size
        self.accounting.logical_bytes -= size
        return True

    # ------------------------------------------------------------ multipart
    @property
    def chunk_bytes(self) -> int:
        """Multipart chunk size (5 MB in U1)."""
        return self._chunk_bytes

    def initiate_multipart(self, key: str, declared_bytes: int) -> str:
        """Start a multipart upload; returns the multipart id."""
        if declared_bytes < 0:
            raise ValueError("declared_bytes must be non-negative")
        multipart_id = f"mp-{next(self._multipart_ids):08d}"
        self._multiparts[multipart_id] = MultipartUpload(
            multipart_id=multipart_id, key=key, declared_bytes=declared_bytes)
        return multipart_id

    def upload_part(self, multipart_id: str, size_bytes: int) -> int:
        """Upload one chunk of a multipart transfer; returns the part number."""
        upload = self._multipart(multipart_id)
        part_number = upload.add_part(size_bytes)
        self.accounting.bytes_uploaded += size_bytes
        return part_number

    def complete_multipart(self, multipart_id: str, content_hash: str) -> int:
        """Finish a multipart upload and commit the content.

        Returns the total stored size.
        """
        upload = self._multipart(multipart_id)
        if upload.completed or upload.aborted:
            raise InvalidTransitionError("multipart upload already finished")
        upload.completed = True
        size = upload.received_bytes
        self.accounting.put_requests += 1
        self.accounting.logical_bytes += size
        self._refcounts[content_hash] = self._refcounts.get(content_hash, 0) + 1
        if content_hash not in self._objects:
            self._objects[content_hash] = size
            self.accounting.bytes_stored += size
        else:
            self.accounting.dedup_hits += 1
        del self._multiparts[multipart_id]
        return size

    def abort_multipart(self, multipart_id: str) -> None:
        """Abort an in-flight multipart upload, discarding received parts."""
        upload = self._multipart(multipart_id)
        upload.aborted = True
        del self._multiparts[multipart_id]

    def pending_multiparts(self) -> int:
        """Number of multipart uploads currently in flight."""
        return len(self._multiparts)

    def _multipart(self, multipart_id: str) -> MultipartUpload:
        try:
            return self._multiparts[multipart_id]
        except KeyError:
            raise UnknownContentError(f"unknown multipart id {multipart_id!r}") from None

    # ----------------------------------------------------------- statistics
    def deduplication_ratio(self) -> float:
        """``1 - unique_bytes / logical_bytes`` (Section 5.3)."""
        if self.accounting.logical_bytes == 0:
            return 0.0
        return 1.0 - self.accounting.bytes_stored / self.accounting.logical_bytes
