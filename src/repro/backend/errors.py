"""Exception taxonomy of the back-end simulator.

Every error carries two class attributes the fault-injection and
mitigation machinery dispatch on:

* ``retryable`` — whether a client-side retry can plausibly succeed
  (transient infrastructure faults) or is pointless (logical errors,
  operator-action faults such as a shard in read-only mode);
* ``error_kind`` — the short stable identifier recorded in the trace's
  ``error_kind`` outcome column ("" for errors that never reach a trace
  row).

The infrastructure-fault triple (:class:`ServiceUnavailable`,
:class:`ShardReadOnly`, :class:`StorageNodeDown`) is raised only by the
fault injector (:mod:`repro.faults.runtime`); the remaining classes are
the pre-existing logical errors of the metadata/store model.
"""

from __future__ import annotations

__all__ = [
    "BackendError",
    "AuthenticationError",
    "UnknownUserError",
    "UnknownNodeError",
    "UnknownContentError",
    "UploadJobError",
    "InvalidTransitionError",
    "QuotaExceededError",
    "FaultError",
    "ServiceUnavailable",
    "ShardReadOnly",
    "StorageNodeDown",
    "ERROR_KINDS",
    "is_retryable_kind",
]


class BackendError(Exception):
    """Base class of every error raised by the back-end simulator."""

    #: Whether retrying the failed request can plausibly succeed.
    retryable: bool = False
    #: Stable identifier recorded in the trace ``error_kind`` column.
    error_kind: str = ""


class AuthenticationError(BackendError):
    """Raised when a token cannot be validated by the authentication service."""

    error_kind = "auth_failed"


class UnknownUserError(BackendError):
    """Raised when an operation references a user id the store has never seen."""


class UnknownNodeError(BackendError):
    """Raised when an operation references a node that does not exist."""


class UnknownContentError(BackendError):
    """Raised when the object store is asked for content it does not hold."""


class UploadJobError(BackendError):
    """Base class of uploadjob life-cycle errors (Appendix A)."""


class InvalidTransitionError(UploadJobError):
    """Raised on an illegal transition of the upload state machine (Fig. 17)."""


class QuotaExceededError(BackendError):
    """Raised when a user exceeds the configured storage quota."""


class FaultError(BackendError):
    """Base class of injected infrastructure faults (:mod:`repro.faults`)."""


class ServiceUnavailable(FaultError):
    """A lossy link or overloaded process dropped the request.

    Transient by nature: a retry lands on a fresh connection attempt (and,
    with backoff, possibly outside the fault window), so it is the
    canonical *retryable* error.
    """

    retryable = True
    error_kind = "service_unavailable"


class ShardReadOnly(FaultError):
    """A metadata shard is in read-only (maintenance/failover) mode.

    Mutations are rejected for the whole window by operator action —
    client retries cannot help, which makes this the canonical *terminal*
    fault: no mitigation policy changes the outcome.
    """

    retryable = False
    error_kind = "shard_read_only"


class StorageNodeDown(FaultError):
    """The storage node holding the requested content is down.

    Retryable: replica failover (or the node returning) can serve a later
    attempt.
    """

    retryable = True
    error_kind = "storage_node_down"


def _error_classes(base: type = BackendError):
    """Every class in the taxonomy, depth-first (``base`` included)."""
    yield base
    for sub in base.__subclasses__():
        yield from _error_classes(sub)


#: ``error_kind`` string -> retryable flag, for code that has only the trace
#: column value in hand (the offline mitigation simulator).  Derived from
#: the class tree, not hand-listed, so a newly added error class with an
#: ``error_kind`` can never silently drift to "unknown kind -> not
#: retryable" in :func:`is_retryable_kind`.
ERROR_KINDS: dict[str, bool] = {
    cls.error_kind: cls.retryable
    for cls in _error_classes() if cls.error_kind
}


def is_retryable_kind(error_kind: str) -> bool:
    """Whether the fault behind an ``error_kind`` column value is retryable."""
    return ERROR_KINDS.get(error_kind, False)
