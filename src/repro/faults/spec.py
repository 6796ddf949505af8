"""Declarative fault timelines: what breaks, when, and how badly.

A :class:`FaultPlan` is a frozen, picklable description of infrastructure
faults scheduled against the *global* trace clock — absolute timestamps,
never per-shard ones — so the planning pass can compile it once
(:func:`repro.faults.runtime.compile_plan`) and every replay shard sees
bit-identical fault exposure at any ``--jobs``.

Four infrastructure fault kinds plus the auth outage:

* :class:`DegradedProcess` — one API worker process serves RPCs slower by a
  multiplicative service-time factor (use :func:`flapping` for the
  on/off-flapping variant);
* :class:`LossyLink` — requests fail with a retryable
  :class:`~repro.backend.errors.ServiceUnavailable` at a fixed rate;
* :class:`ReadOnlyShard` — one metadata shard rejects mutations
  (:class:`~repro.backend.errors.ShardReadOnly`, terminal);
* :class:`StorageNodeOutage` — content whose hash maps onto the down
  storage node fails (:class:`~repro.backend.errors.StorageNodeDown`) or,
  with ``failover=True``, is served by a surviving replica;
* :class:`AuthOutage` — every session open in the window fails
  authentication (the old ``force_auth_failure`` special case, folded into
  the fault framework).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AuthOutage",
    "DegradedProcess",
    "FaultPlan",
    "LossyLink",
    "ReadOnlyShard",
    "StorageNodeOutage",
    "default_fault_plan",
    "flapping",
]


@dataclass(frozen=True)
class _Window:
    """Base of every fault: a half-open ``[start, end)`` absolute interval.

    Every window validates **at construction** (``__post_init__`` calls the
    subclass ``validate``), so a negative rate, an inverted or zero-length
    window or a nonsense target index raises a precise :class:`ValueError`
    where the bad literal was written — never deep inside plan compilation.
    Fleet-relative checks (does the targeted process/shard exist?) need the
    cluster's dimensions and stay in :meth:`FaultPlan.validate`.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.end > self.start:
            raise ValueError(f"{type(self).__name__}: end ({self.end}) must "
                             f"be after start ({self.start})")


@dataclass(frozen=True)
class DegradedProcess(_Window):
    """One API worker process serves every RPC ``inflation`` times slower.

    ``process_index`` is the fleet-wide worker index (the enumeration order
    of ``ClusterConfig.process_addresses()``).  The inflation multiplies the
    already-drawn service time, so the RNG draw sequence — and therefore
    the zero-fault trace — is untouched.
    """

    process_index: int = 0
    inflation: float = 4.0

    def validate(self) -> None:
        super().validate()
        if self.inflation <= 1.0:
            raise ValueError("DegradedProcess.inflation must exceed 1.0")
        if self.process_index < 0:
            raise ValueError("DegradedProcess.process_index must be >= 0")


@dataclass(frozen=True)
class LossyLink(_Window):
    """Requests fail with retryable ``ServiceUnavailable`` at ``failure_rate``.

    The per-request (and per-retry-attempt) failure decision is a pure hash
    of the request identity and the plan seed — no RNG stream is consumed,
    so exposure is identical at any shard count and recomputable offline.
    """

    failure_rate: float = 0.05

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.failure_rate <= 1.0:
            raise ValueError("LossyLink.failure_rate must be in (0, 1]")


@dataclass(frozen=True)
class ReadOnlyShard(_Window):
    """One metadata shard rejects every mutation for the window."""

    shard_id: int = 0

    def validate(self) -> None:
        super().validate()
        if self.shard_id < 0:
            raise ValueError("ReadOnlyShard.shard_id must be >= 0")


@dataclass(frozen=True)
class StorageNodeOutage(_Window):
    """One of ``n_nodes`` storage nodes is down.

    Content placement is ``crc32(content_hash) % n_nodes``; transfer
    requests whose content lands on ``node_index`` fail with
    ``StorageNodeDown`` — or are served by a surviving replica when
    ``failover`` is on (counted, never failed).
    """

    node_index: int = 0
    n_nodes: int = 4
    failover: bool = False

    def validate(self) -> None:
        super().validate()
        if self.n_nodes < 2:
            raise ValueError("StorageNodeOutage.n_nodes must be >= 2 "
                             "(a 1-node fleet has nothing to fail over to)")
        if not 0 <= self.node_index < self.n_nodes:
            raise ValueError("StorageNodeOutage.node_index out of range")


@dataclass(frozen=True)
class AuthOutage(_Window):
    """The authentication service rejects every session open in the window."""


@dataclass(frozen=True)
class FaultPlan:
    """A seed-deterministic fault timeline for one replay.

    ``seed`` salts the per-request failure hashes of :class:`LossyLink`; two
    plans with the same windows and different seeds fail different (equally
    likely) request subsets.  An empty plan is valid and is the "machinery
    attached, nothing injected" configuration the zero-fault overhead bound
    is measured against.
    """

    faults: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable, store a hashable/picklable tuple — and
        # reject unknown/invalid members immediately, so a bad plan can
        # never exist long enough to reach compilation.
        object.__setattr__(self, "faults", tuple(self.faults))
        known = (DegradedProcess, LossyLink, ReadOnlyShard,
                 StorageNodeOutage, AuthOutage)
        for fault in self.faults:
            if not isinstance(fault, known):
                raise TypeError(f"unknown fault kind: {fault!r}")
            fault.validate()

    def validate(self, n_processes: int | None = None,
                 n_shards: int | None = None) -> None:
        """Check window sanity and that every fault targets real hardware."""
        for fault in self.faults:
            fault.validate()
            if (isinstance(fault, DegradedProcess) and n_processes is not None
                    and fault.process_index >= n_processes):
                raise ValueError(
                    f"DegradedProcess.process_index {fault.process_index} "
                    f">= fleet size {n_processes}")
            if (isinstance(fault, ReadOnlyShard) and n_shards is not None
                    and fault.shard_id >= n_shards):
                raise ValueError(f"ReadOnlyShard.shard_id {fault.shard_id} "
                                 f">= metadata shard count {n_shards}")

    def __bool__(self) -> bool:
        return bool(self.faults)


def flapping(start: float, end: float, period: float,
             process_index: int = 0, inflation: float = 4.0,
             duty: float = 0.5) -> tuple[DegradedProcess, ...]:
    """A flapping process: degraded for ``duty`` of every ``period``.

    Expands into one :class:`DegradedProcess` window per cycle, so the
    compiled schedule stays a flat window list and flapping needs no
    special runtime support.
    """
    if period <= 0.0:
        raise ValueError("flapping period must be positive")
    if not 0.0 < duty <= 1.0:
        raise ValueError("flapping duty must be in (0, 1]")
    windows = []
    t = start
    while t < end:
        windows.append(DegradedProcess(
            start=t, end=min(t + duty * period, end),
            process_index=process_index, inflation=inflation))
        t += period
    return tuple(windows)


def default_fault_plan(start: float, span: float, seed: int = 0,
                       n_storage_nodes: int = 4) -> FaultPlan:
    """The reference incident day: the ``repro faultsweep`` scenario.

    Relative to ``start`` over a timeline of ``span`` seconds: API process
    0 flaps through the first half, a lossy-link episode and a read-only
    metadata shard 0 cover the middle, one storage node dies in the third
    quarter (no failover — users see the errors), and a short auth outage
    opens the final quarter.

    The targets are fixed, so the traffic they meet depends on the seed.
    Process 0 is not reliably busy while it flaps: at 250 users × 2 days it
    runs 26 degraded RPCs at seed 2014 and 1,852 at 2015.  Read-only shard
    0 rejects none at 250 × 2 at seeds 2014, 2015 and 7, and 10 (2014) and
    20 (2015) on the perfbench ``faulted-sweeps`` workload.
    """
    if span <= 0.0:
        raise ValueError("default_fault_plan span must be positive")
    q = span / 4.0
    return FaultPlan(faults=(
        *flapping(start + 0.25 * q, start + 2.00 * q, period=q / 4.0,
                  process_index=0, inflation=4.0, duty=0.5),
        LossyLink(start + 1.50 * q, start + 2.50 * q, failure_rate=0.08),
        ReadOnlyShard(start + 1.75 * q, start + 2.25 * q, shard_id=0),
        StorageNodeOutage(start + 2.00 * q, start + 3.00 * q, node_index=1,
                          n_nodes=n_storage_nodes, failover=False),
        AuthOutage(start + 3.00 * q, start + 3.25 * q),
    ), seed=seed)
