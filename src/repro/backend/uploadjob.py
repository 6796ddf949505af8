"""The multipart-upload ("uploadjob") state machine of Appendix A / Fig. 17.

U1 resorts to the Amazon S3 multipart upload API for large transfers.  A
persistent *uploadjob* structure tracks the state of a multipart transfer in
the metadata store:

1. when an upload request arrives the API server first checks whether the
   content already exists (dedup via ``get_reusable_content``);
2. if not, an uploadjob is created (``make_uploadjob``);
3. the API server requests a multipart id from Amazon S3 and attaches it to
   the job (``set_uploadjob_multipart_id``);
4. the file is transferred in 5 MB chunks, each chunk recorded with
   ``add_part_to_uploadjob``;
5. on completion the content entry is committed (``make_content``), the job
   is deleted (``delete_uploadjob``) and S3 is notified;
6. a periodic garbage collector ``touch``es jobs and deletes those older
   than one week (the client is assumed to have cancelled the transfer).

:class:`UploadJob` implements exactly those transitions and raises
:class:`~repro.backend.errors.InvalidTransitionError` on any other ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.backend.errors import InvalidTransitionError
from repro.util.units import WEEK

__all__ = ["UploadJobState", "UploadJob", "GARBAGE_COLLECTION_AGE",
           "UPLOAD_CHUNK_BYTES"]

#: Multipart upload chunk size used by U1 against Amazon S3 (Appendix A).
UPLOAD_CHUNK_BYTES: int = 5 * 1024 * 1024

#: Uploadjobs older than one week are assumed cancelled and garbage collected.
GARBAGE_COLLECTION_AGE: float = WEEK


class UploadJobState(str, enum.Enum):
    """States of the upload state machine (Fig. 17)."""

    CREATED = "created"
    MULTIPART_ASSIGNED = "multipart_assigned"
    UPLOADING = "uploading"
    COMMITTED = "committed"
    CANCELLED = "cancelled"
    GARBAGE_COLLECTED = "garbage_collected"

    @property
    def is_terminal(self) -> bool:
        """True for states from which no further transition is allowed."""
        return self in (UploadJobState.COMMITTED, UploadJobState.CANCELLED,
                        UploadJobState.GARBAGE_COLLECTED)


@dataclass
class UploadJob:
    """Server-side state of one multipart upload."""

    job_id: int
    user_id: int
    node_id: int
    volume_id: int
    content_hash: str
    total_bytes: int
    created_at: float
    chunk_bytes: int = UPLOAD_CHUNK_BYTES
    state: UploadJobState = UploadJobState.CREATED
    multipart_id: str = ""
    uploaded_bytes: int = 0
    parts: list[int] = field(default_factory=list)
    last_touched: float = 0.0

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.last_touched = self.created_at

    # -------------------------------------------------------------- guards
    def _require(self, *states: UploadJobState) -> None:
        if self.state not in states:
            raise InvalidTransitionError(
                f"uploadjob {self.job_id}: operation not allowed in state "
                f"{self.state.value!r} (expected one of "
                f"{[s.value for s in states]})")

    # ---------------------------------------------------------- transitions
    def assign_multipart_id(self, multipart_id: str, when: float) -> None:
        """Attach the Amazon S3 multipart id (``set_uploadjob_multipart_id``)."""
        self._require(UploadJobState.CREATED)
        if not multipart_id:
            raise ValueError("multipart_id must be non-empty")
        self.multipart_id = multipart_id
        self.state = UploadJobState.MULTIPART_ASSIGNED
        self.last_touched = when

    def add_part(self, part_bytes: int, when: float) -> int:
        """Record one uploaded chunk (``add_part_to_uploadjob``).

        Returns the part number just recorded (1-based).
        """
        self._require(UploadJobState.MULTIPART_ASSIGNED, UploadJobState.UPLOADING)
        if part_bytes <= 0:
            raise ValueError("part_bytes must be positive")
        if part_bytes > self.chunk_bytes:
            raise ValueError("part exceeds the multipart chunk size")
        if self.uploaded_bytes + part_bytes > self.total_bytes:
            raise InvalidTransitionError(
                f"uploadjob {self.job_id}: part overflows the declared size")
        self.uploaded_bytes += part_bytes
        self.parts.append(part_bytes)
        self.state = UploadJobState.UPLOADING
        self.last_touched = when
        return len(self.parts)

    @property
    def is_complete(self) -> bool:
        """True when every declared byte has been uploaded."""
        return self.uploaded_bytes >= self.total_bytes

    @property
    def expected_parts(self) -> int:
        """Number of chunks a full transfer requires."""
        if self.total_bytes == 0:
            return 0
        return -(-self.total_bytes // self.chunk_bytes)  # ceil division

    @property
    def progress(self) -> float:
        """Fraction of bytes uploaded so far, in [0, 1]."""
        if self.total_bytes == 0:
            return 1.0
        return min(1.0, self.uploaded_bytes / self.total_bytes)

    def commit(self, when: float) -> None:
        """Complete the upload (``delete_uploadjob`` after a successful transfer)."""
        self._require(UploadJobState.MULTIPART_ASSIGNED, UploadJobState.UPLOADING)
        if not self.is_complete:
            raise InvalidTransitionError(
                f"uploadjob {self.job_id}: cannot commit with "
                f"{self.uploaded_bytes}/{self.total_bytes} bytes uploaded")
        self.state = UploadJobState.COMMITTED
        self.last_touched = when

    def cancel(self, when: float) -> None:
        """Cancel the upload (client abort; ``delete_uploadjob``)."""
        if self.state.is_terminal:
            raise InvalidTransitionError(
                f"uploadjob {self.job_id}: already in terminal state {self.state.value!r}")
        self.state = UploadJobState.CANCELLED
        self.last_touched = when

    def touch(self, when: float) -> bool:
        """Garbage-collection probe (``touch_uploadjob``).

        Returns True (and transitions to GARBAGE_COLLECTED) when the job has
        been idle for longer than :data:`GARBAGE_COLLECTION_AGE`; otherwise
        only refreshes the probe timestamp and returns False.
        """
        if self.state.is_terminal:
            return False
        if when - self.last_touched > GARBAGE_COLLECTION_AGE:
            self.state = UploadJobState.GARBAGE_COLLECTED
            return True
        return False

