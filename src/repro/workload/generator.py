"""Top-level synthetic trace generator (plan/materialize split).

:class:`SyntheticTraceGenerator` stitches together the population, file,
session, operation and attack models into a stream of per-session client
scripts (:meth:`client_events`) or directly into a
:class:`~repro.trace.dataset.TraceDataset` (:meth:`generate`).

Since PR 3 generation is split into two passes:

* :meth:`SyntheticTraceGenerator.plan` is the cheap **global planning
  pass**: it draws everything that needs cross-user totals from the one
  seeded root stream — per-user session plans (including each active
  session's planned operation count), globally allocated session ids, the
  DDoS rate normalisation and the shared popular-content pool that keeps
  cross-user dedup alive.
* :func:`materialize_members` is the **per-user materialization pass**: it
  turns plan members (users or attack episodes) into concrete
  :class:`SessionScript` streams.  Every member draws exclusively from its
  own RNG stream spawned from ``(seed, member user id)``, and node /
  volume / content-hash identifiers live in per-user namespaces, so the
  realised workload is a pure function of ``(config, plan member)`` —
  independent of which replay shard (or worker process) materializes it,
  and bit-identical to running the whole generator unsharded.

The per-user materializer maintains the *client-side namespace state* of its
user — volumes, directories and files, together with their sizes, content
hashes and read/write history — so that the emitted operations are
structurally consistent: downloads read files that exist, updates rewrite
files that were uploaded before, unlinks delete live nodes, and the per-file
operation dependencies (Fig. 3) emerge from the same
editing/synchronisation behaviour the paper describes.

Since PR 5 each session's *stochastic structure* is drawn as arrays up
front instead of event by event: the inter-operation gaps come from one
``BurstGapSampler.sample_many`` block (the timeline and its truncation at
the session end are one cumulative sum), the per-step download biases are
one vectorised diurnal evaluation, the whole operation sequence is an
inverse-CDF walk over per-user-class compiled transition tables
(:func:`repro.workload.opmodel.compiled_chain`) driven by one uniform
block, and the operand randomness — update/download rolls, target
selectors, new-file contents — is pre-drawn in per-session typed blocks.
Only the truly state-dependent residue (file-table weight lookups, volume
bookkeeping, pending-upload coupling) stays in the per-event loop,
consuming the pre-drawn arrays.  Users whose plans hold only cold or
auth-failing sessions skip the file/gap models and the pre-existing-file
draws entirely.  All of it preserves the PR 3 invariant: the realised
workload remains a pure function of ``(config, plan member)``, bit
identical across any member partition and any ``--jobs``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.trace.dataset import TraceDataset
from repro.trace.records import (
    ApiOperation,
    NodeKind,
    SessionEvent,
    VolumeType,
)
from repro.util.gctools import cyclic_gc_paused
from repro.util.rngpool import RngPool
from repro.util.units import HOUR
from repro.workload.attacks import build_attack_episodes
from repro.workload.config import WorkloadConfig
from repro.workload.diurnal import DiurnalProfile
from repro.workload.events import ClientEvent, EventBlock, SessionScript
from repro.workload.filemodel import FileModel, PopularContentPool
from repro.workload.opmodel import (
    CHAIN_OP_INDEX,
    CHAIN_OPS,
    BurstGapSampler,
    compiled_chain,
)
from repro.workload.plan import AttackPlan, SessionSpec, UserPlan, WorkloadPlan
from repro.workload.population import User, UserClass, build_population
from repro.workload.sessionmodel import SessionModel

__all__ = [
    "SyntheticTraceGenerator",
    "UserMaterializer",
    "materialize_member",
    "materialize_members",
]


#: Spawn-key namespace of the per-member materialization streams.  Member
#: streams use ``SeedSequence(entropy=seed, spawn_key=(_SPAWN_NAMESPACE,
#: user_id))`` — a two-element key disjoint from the single-element
#: ``(shard_id,)`` keys of the replay shards, so a workload seed equal to a
#: cluster seed can never alias a user stream onto a shard stream.
_SPAWN_NAMESPACE = 0x6D41

#: Per-user id namespaces: node and volume ids are ``(user_id << _ID_BITS) +
#: local``, giving every user ~16.7M ids — materialization order inside one
#: user decides ``local``, so ids are shard- and worker-independent.  Attack
#: episodes keep their historical fixed ids below ``1 << _ID_BITS``.
_ID_BITS = 24

#: Sessions per DDoS plan-member slice.  Small enough that even the largest
#: capped episode (5000 sessions) splits into ~20 balanceable members, big
#: enough that re-running the episode's whole-episode vectorised draws per
#: slice stays negligible next to building the slice's events.
_ATTACK_SLICE_SESSIONS = 256

#: Live-file counts up to which the weighted operand choices run as plain
#: Python loops.  A tiny NumPy weight computation costs ~10 us in call
#: overhead alone; below this size the scalar scan over the same columns is
#: several times cheaper, above it the vectorised path wins.  The cutover
#: only selects between two evaluations of the same weights, so the chosen
#: operand is the same either way.
_SMALL_TABLE = 48

#: Update-targeting editing burst (see ``_FileTable.pick_update``): extra
#: weight on files written within the window, so consecutive saves of the
#: same document chain into WAW dependencies the way Fig. 3a observes
#: ("WAW is the most common dependency", 80 % of WAW gaps under an hour).
_UPDATE_BURST_WINDOW = 15 * 60.0
_UPDATE_BURST_BONUS = 8.0

#: Multiplier on ``config.update_fraction`` for update *attempts* (misses
#: fall back to fresh uploads, so the realised update share lands near the
#: paper's ~10-15 %).  Raised from the historical 1.3 as part of the WAW
#: recalibration: same-file re-uploads were under-produced by a factor
#: that left the Fig. 3a WAW share near-vacuous.
_UPDATE_ATTEMPT_BOOST = 2.0

#: Download-target mix (WAW recalibration).  U1 is a backup-flavoured
#: service: most uploads are never read back, downloads are dominated by
#: repeated reads of popular content (RAR) and newly appearing remote
#: content, and only a modest share synchronises just-written files (RAW).
#: rolls < _DL_SYNC pick an unsynced file; rolls < _DL_KNOWN re-read known
#: content; the rest sync fresh remote content into the namespace.
_DL_SYNC_SHARE = 0.30
_DL_KNOWN_SHARE = 0.80

def _update_base_weight(size_bytes: float) -> float:
    """Size-derived update-pick weight: ``0.4 + min(size / 1 MB, 1.5)``."""
    boost = size_bytes / (1024 * 1024)
    return 0.4 + (boost if boost < 1.5 else 1.5)


#: Chain-state indices the per-event dispatch switches on.  ``CHAIN_OPS``
#: orders the maintenance operations (no operand, no namespace state)
#: first, so one integer compare against ``_FIRST_STATEFUL`` routes them
#: past the whole dispatch ladder.
_FIRST_STATEFUL = CHAIN_OP_INDEX[ApiOperation.MAKE]
_OP_MAKE = CHAIN_OP_INDEX[ApiOperation.MAKE]
_OP_UPLOAD = CHAIN_OP_INDEX[ApiOperation.UPLOAD]
_OP_DOWNLOAD = CHAIN_OP_INDEX[ApiOperation.DOWNLOAD]
_OP_UNLINK = CHAIN_OP_INDEX[ApiOperation.UNLINK]
_OP_MOVE = CHAIN_OP_INDEX[ApiOperation.MOVE]
_OP_CREATE_UDF = CHAIN_OP_INDEX[ApiOperation.CREATE_UDF]
_OP_DELETE_VOLUME = CHAIN_OP_INDEX[ApiOperation.DELETE_VOLUME]


# ---------------------------------------------------------------------------
# Client-side namespace state
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _FileState:
    node_id: int
    volume_id: int
    volume_type: VolumeType
    size_bytes: int
    content_hash: str
    extension: str
    created: float
    last_write: float
    last_read: float = -1.0
    reads: int = 0
    writes: int = 1


@dataclass(slots=True)
class _VolumeState:
    volume_id: int
    volume_type: VolumeType
    directory_count: int = 0
    file_ids: set[int] = field(default_factory=set)


class _PendingUploads:
    """FIFO of node ids awaiting upload: O(1) append/pop/contains/discard.

    Replaces the historical plain list whose ``pop(0)``, ``remove`` and
    ``in`` were all O(n).  Removal is lazy: ``discard`` only drops the id
    from the membership set, and ``popleft`` skips tombstoned entries.
    """

    __slots__ = ("_queue", "_members")

    def __init__(self) -> None:
        self._queue: deque[int] = deque()
        self._members: set[int] = set()

    def __bool__(self) -> bool:
        return bool(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def append(self, node_id: int) -> None:
        self._queue.append(node_id)
        self._members.add(node_id)

    def discard(self, node_id: int) -> None:
        self._members.discard(node_id)

    def popleft(self) -> int | None:
        queue = self._queue
        members = self._members
        while queue:
            node_id = queue.popleft()
            if node_id in members:
                members.discard(node_id)
                return node_id
        return None


class _FileTable:
    """Columnar mirror of a user's live files, for weighted operand choice.

    The per-operation target choices (download/update/unlink/move) weight
    every live file by recency, popularity and size.  Rebuilding a Python
    weight list per operation made operand choice O(n_files) *interpreted*
    work; this table keeps the numeric state in parallel NumPy arrays that
    are updated in O(1) on file create/delete/touch, so each choice is a
    vectorised weight computation plus a binary search over the running
    cumulative sum.
    """

    __slots__ = ("node_ids", "created", "last_write", "last_read", "reads",
                 "size_bytes", "upd_base", "slot", "n", "scratch", "unsynced")

    def __init__(self, capacity: int = 16):
        self.node_ids = np.zeros(capacity, dtype=np.int64)
        self.created = np.zeros(capacity)
        self.last_write = np.zeros(capacity)
        self.last_read = np.zeros(capacity)
        self.reads = np.zeros(capacity)
        self.size_bytes = np.zeros(capacity)
        # Size-derived update-pick base weight (0.4 + min(size/1MB, 1.5)),
        # maintained incrementally so pick_update never recomputes it.
        self.upd_base = np.zeros(capacity)
        # Node ids with ``last_read < last_write`` (pending synchronisation),
        # maintained incrementally: O(1) membership churn per touch instead
        # of an O(n_files) scan per sync-download pick.
        self.unsynced: set[int] = set()
        # Reused weight buffer of the vectorised picks (never holds state
        # across calls); sized with the columns.
        self.scratch = np.empty(capacity)
        self.slot: dict[int, int] = {}
        self.n = 0

    def _grow(self) -> None:
        for name in ("node_ids", "created", "last_write", "last_read",
                     "reads", "size_bytes", "upd_base"):
            old = getattr(self, name)
            new = np.zeros(len(old) * 2, dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)
        self.scratch = np.empty(len(self.node_ids))

    # -------------------------------------------------------------- updates
    def add(self, node_id: int, created: float, size_bytes: int,
            last_read: float = -1.0) -> None:
        if self.n == len(self.node_ids):
            self._grow()
        i = self.n
        self.node_ids[i] = node_id
        self.created[i] = created
        self.last_write[i] = created
        self.last_read[i] = last_read
        self.reads[i] = 0
        self.size_bytes[i] = size_bytes
        self.upd_base[i] = _update_base_weight(size_bytes)
        self.slot[node_id] = i
        if last_read < created:
            self.unsynced.add(node_id)
        self.n += 1

    def add_block(self, node_ids: list[int], created: float,
                  sizes: list[int]) -> None:
        """Bulk-register files created at the same instant (initial state)."""
        k = len(node_ids)
        while self.n + k > len(self.node_ids):
            self._grow()
        i = self.n
        stop = i + k
        self.node_ids[i:stop] = node_ids
        self.created[i:stop] = created
        self.last_write[i:stop] = created
        self.last_read[i:stop] = -1.0
        self.reads[i:stop] = 0
        self.size_bytes[i:stop] = sizes
        base = self.upd_base[i:stop]
        np.multiply(self.size_bytes[i:stop], 1.0 / (1024 * 1024), out=base)
        np.minimum(base, 1.5, out=base)
        base += 0.4
        slot = self.slot
        for offset, node_id in enumerate(node_ids):
            slot[node_id] = i + offset
        self.unsynced.update(node_ids)
        self.n = stop

    def remove(self, node_id: int) -> None:
        i = self.slot.pop(node_id, None)
        if i is None:
            return
        self.unsynced.discard(node_id)
        last = self.n - 1
        if i != last:
            for name in ("node_ids", "created", "last_write", "last_read",
                         "reads", "size_bytes", "upd_base"):
                column = getattr(self, name)
                column[i] = column[last]
            self.slot[int(self.node_ids[i])] = i
        self.n = last

    def touch_write(self, node_id: int, when: float,
                    size_bytes: int | None = None) -> None:
        i = self.slot[node_id]
        self.last_write[i] = when
        if size_bytes is not None:
            self.size_bytes[i] = size_bytes
            self.upd_base[i] = _update_base_weight(size_bytes)
        if self.last_read[i] < when:
            self.unsynced.add(node_id)
        else:
            self.unsynced.discard(node_id)

    def touch_read(self, node_id: int, when: float) -> None:
        i = self.slot[node_id]
        self.last_read[i] = when
        self.reads[i] += 1
        if when < self.last_write[i]:
            self.unsynced.add(node_id)
        else:
            self.unsynced.discard(node_id)

    # -------------------------------------------------------------- choices
    #
    # Every flavour has two evaluations of the same weights: a plain-Python
    # scan for small tables (where NumPy call overhead dominates) and the
    # vectorised computation above ``_SMALL_TABLE`` files.  The uniform ``u``
    # comes pre-drawn from the caller's per-session blocks.

    def _pick(self, weights: np.ndarray, u: float) -> int:
        cumulative = np.cumsum(weights, out=weights)
        index = int(cumulative.searchsorted(u * cumulative[-1], side="right"))
        if index >= self.n:
            index = self.n - 1
        return int(self.node_ids[index])

    def _pick_small(self, weights: list[float], u: float) -> int:
        x = u * sum(weights)
        acc = 0.0
        index = 0
        for index, weight in enumerate(weights):
            acc += weight
            if x < acc:
                break
        return int(self.node_ids[index])

    def pick_weighted(self, now: float, u: float, favour_recent_writes: bool,
                      favour_popular: bool, favour_large: bool,
                      penalise_already_synced: bool = False) -> int | None:
        n = self.n
        if n == 0:
            return None
        if n <= _SMALL_TABLE:
            last_write = self.last_write[:n].tolist()
            weights = [1.0] * n
            if favour_recent_writes:
                for i, written in enumerate(last_write):
                    if now - written < HOUR:
                        weights[i] += 4.0
            if favour_popular:
                for i, reads in enumerate(self.reads[:n].tolist()):
                    weights[i] += (reads if reads < 10.0 else 10.0) * 0.5
            if favour_large:
                for i, size in enumerate(self.size_bytes[:n].tolist()):
                    boost = size / (4 * 1024 * 1024)
                    weights[i] += boost if boost < 3.0 else 3.0
            if penalise_already_synced:
                for i, read in enumerate(self.last_read[:n].tolist()):
                    if read > last_write[i]:
                        weights[i] *= 0.15
            return self._pick_small(weights, u)
        weights = self.scratch[:n]
        weights[:] = 1.0
        if favour_recent_writes:
            weights[now - self.last_write[:n] < HOUR] += 4.0
        if favour_popular:
            weights += np.minimum(self.reads[:n], 10.0) * 0.5
        if favour_large:
            weights += np.minimum(self.size_bytes[:n] / (4 * 1024 * 1024), 3.0)
        if penalise_already_synced:
            weights[self.last_read[:n] > self.last_write[:n]] *= 0.15
        return self._pick(weights, u)

    def pick_update(self, now: float, u: float) -> int | None:
        """The file an update rewrites: size-, recency- and burst-weighted.

        The ``_UPDATE_BURST_*`` term models editing bursts — a user saving
        the same document over and over — which is what makes WAW the most
        common same-file dependency in the paper (Fig. 3a): a file written
        in the last few minutes is overwhelmingly the next update target.
        """
        n = self.n
        if n == 0:
            return None
        if n <= _SMALL_TABLE:
            weights = []
            last_write = self.last_write[:n].tolist()
            for i, weight in enumerate(self.upd_base[:n].tolist()):
                gap = now - last_write[i]
                if gap < HOUR:
                    weight += 2.0
                    if gap < _UPDATE_BURST_WINDOW:
                        weight += _UPDATE_BURST_BONUS
                weights.append(weight)
            return self._pick_small(weights, u)
        gaps = now - self.last_write[:n]
        weights = self.scratch[:n]
        np.copyto(weights, self.upd_base[:n])
        weights[gaps < HOUR] += 2.0
        weights[gaps < _UPDATE_BURST_WINDOW] += _UPDATE_BURST_BONUS
        return self._pick(weights, u)

    def pick_reread(self, u: float) -> int | None:
        """A re-download target, weighted by read popularity (RAR, Fig. 3b).

        Already-read files dominate; never-read files keep a small base
        weight so fresh remote content can enter the popular set.
        """
        n = self.n
        if n == 0:
            return None
        if n <= _SMALL_TABLE:
            weights = [0.15 + (reads if reads < 10.0 else 10.0)
                       for reads in self.reads[:n].tolist()]
            return self._pick_small(weights, u)
        weights = self.scratch[:n]
        np.minimum(self.reads[:n], 10.0, out=weights)
        weights += 0.15
        return self._pick(weights, u)

    def pick_unsynced(self, now: float, u: float) -> int | None:
        """A file with ``last_read < last_write`` (pending synchronisation)."""
        members = self.unsynced
        k = len(members)
        if k == 0:
            return None
        if k <= 2 * _SMALL_TABLE:
            slot = self.slot
            last_write = self.last_write
            node_list = list(members)
            weights = []
            for node_id in node_list:
                written = last_write[slot[node_id]]
                weights.append(4.0 if now - written < HOUR else 1.0)
            x = u * sum(weights)
            acc = 0.0
            index = 0
            for index, weight in enumerate(weights):
                acc += weight
                if x < acc:
                    break
            return node_list[index]
        n = self.n
        unsynced = np.flatnonzero(self.last_read[:n] < self.last_write[:n])
        weights = np.ones(unsynced.size)
        weights[now - self.last_write[unsynced] < HOUR] += 3.0
        cumulative = np.cumsum(weights)
        index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
        if index >= unsynced.size:
            index = unsynced.size - 1
        return int(self.node_ids[unsynced[index]])

    def pick_recent_created(self, now: float, window: float, u: float) -> int | None:
        """A uniformly chosen file created less than ``window`` seconds ago."""
        n = self.n
        if n <= _SMALL_TABLE:
            recent = [i for i, created in enumerate(self.created[:n].tolist())
                      if now - created < window]
            if not recent:
                return None
            index = int(u * len(recent))
            if index >= len(recent):
                index = len(recent) - 1
            return int(self.node_ids[recent[index]])
        recent = np.flatnonzero(now - self.created[:n] < window)
        if recent.size == 0:
            return None
        index = int(u * recent.size)
        if index >= recent.size:
            index = recent.size - 1
        return int(self.node_ids[recent[index]])


@dataclass
class _UserState:
    user: User
    volumes: dict[int, _VolumeState] = field(default_factory=dict)
    files: dict[int, _FileState] = field(default_factory=dict)
    pending_uploads: _PendingUploads = field(default_factory=_PendingUploads)
    #: Live-file columns; only users with active sessions get one (cold
    #: and auth-failing sessions never choose a file operand).
    table: _FileTable | None = None
    # Volume choice cache: (volume list, cumulative weights); rebuilt only
    # when the volume set changes (UDF creation/deletion is rare).
    volume_cache: tuple[list[_VolumeState], list[float]] | None = None
    #: The root volume id, cached for the per-event hot path (the root
    #: volume is created first and never deleted).
    root_id: int = 0

    def live_file_ids(self) -> list[int]:
        return list(self.files.keys())

    def udf_volume_ids(self) -> list[int]:
        return [v.volume_id for v in self.volumes.values()
                if v.volume_type is VolumeType.UDF]

    def root_volume_id(self) -> int:
        for volume in self.volumes.values():
            if volume.volume_type is VolumeType.ROOT:
                return volume.volume_id
        raise RuntimeError("user state has no root volume")


# ---------------------------------------------------------------------------
# Per-user materialization
# ---------------------------------------------------------------------------

def member_rng(seed: int, user_id: int) -> np.random.Generator:
    """The independent materialization stream of one plan member.

    A pure function of ``(seed, user_id)`` via the NumPy ``SeedSequence``
    spawn-key mechanism — no dependence on how many draws any other member
    (or the planning pass) made.
    """
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(_SPAWN_NAMESPACE, user_id))
    return np.random.default_rng(sequence)


# --- Batched member-stream derivation -------------------------------------
#
# ``member_rng`` costs ~14 us per user, nearly all of it inside NumPy's
# scalar ``SeedSequence`` entropy-mixing and state generation.  The mixing
# is a fixed sequence of uint32 hash steps, so deriving the PCG64 seeding
# words for *all* members of a batch is one vectorised pass over a
# ``(n_users,)`` lane per pool word.  The constants and update order below
# replicate ``np.random.SeedSequence`` exactly (pinned by
# ``tests/workload/test_generator.py::TestBatchedMemberRng``), and the
# derived streams are handed to ``PCG64`` through a tiny ``ISeedSequence``
# shim that still exposes ``entropy``/``spawn_key`` for the consumers that
# re-spawn child sequences from them (``RngPool.spawn``, the attack-episode
# draw memo).

_SS_INIT_A = 0x43b0d7e5
_SS_MULT_A = 0x931e8875
_SS_INIT_B = 0x8b51f9dd
_SS_MULT_B = 0x58f38ded
_SS_MIX_L = np.uint32(0xca01f9dd)
_SS_MIX_R = np.uint32(0x4973f715)
_SS_XSHIFT = np.uint32(16)
_SS_POOL_SIZE = 4
_U32_MASK = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """An integer as little-endian uint32 words (SeedSequence coercion)."""
    if value < 0:
        raise ValueError("entropy must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _U32_MASK)
        value >>= 32
    return words


def _batched_member_words(seed: int, user_ids: "list[int]") -> np.ndarray:
    """PCG64 seeding words for every member stream, in one vectorised pass.

    Returns a ``(len(user_ids), 4)`` uint64 array where row ``i`` equals
    ``SeedSequence(entropy=seed, spawn_key=(_SPAWN_NAMESPACE,
    user_ids[i])).generate_state(4, np.uint64)``.
    """
    uid = np.asarray(user_ids, dtype=np.uint32)
    # Assembled entropy: the seed's words zero-padded to the pool size (the
    # SeedSequence anti-collision rule when a spawn key is present), then
    # the namespace word and the user-id word.  Only the user-id lane
    # varies across the batch.
    seed_words = _uint32_words(seed)
    if len(seed_words) < _SS_POOL_SIZE:
        seed_words = seed_words + [0] * (_SS_POOL_SIZE - len(seed_words))
    assembled: list[np.ndarray] = [np.uint32(word) for word in seed_words]
    assembled.append(np.uint32(_SPAWN_NAMESPACE))
    assembled.append(uid)

    hash_const = [_SS_INIT_A]

    def hashmix(value):
        value = np.bitwise_xor(value, np.uint32(hash_const[0]))
        hash_const[0] = (hash_const[0] * _SS_MULT_A) & _U32_MASK
        value = np.multiply(value, np.uint32(hash_const[0]), dtype=np.uint32)
        return np.bitwise_xor(value, value >> _SS_XSHIFT)

    def mix(x, y):
        result = np.subtract(np.multiply(x, _SS_MIX_L, dtype=np.uint32),
                             np.multiply(y, _SS_MIX_R, dtype=np.uint32),
                             dtype=np.uint32)
        return np.bitwise_xor(result, result >> _SS_XSHIFT)

    pool = [hashmix(assembled[i] if i < len(assembled) else np.uint32(0))
            for i in range(_SS_POOL_SIZE)]
    for i_src in range(_SS_POOL_SIZE):
        for i_dst in range(_SS_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_SS_POOL_SIZE, len(assembled)):
        for i_dst in range(_SS_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(assembled[i_src]))

    hash_const[0] = _SS_INIT_B
    state = np.empty((2 * _SS_POOL_SIZE, uid.size), dtype=np.uint32)
    for i_dst in range(2 * _SS_POOL_SIZE):
        value = np.bitwise_xor(pool[i_dst % _SS_POOL_SIZE],
                               np.uint32(hash_const[0]))
        hash_const[0] = (hash_const[0] * _SS_MULT_B) & _U32_MASK
        value = np.multiply(value, np.uint32(hash_const[0]), dtype=np.uint32)
        state[i_dst] = np.bitwise_xor(value, value >> _SS_XSHIFT)
    # Pair adjacent uint32 words into uint64 exactly as generate_state's
    # ``.view(np.uint64)`` does on the contiguous word buffer.
    return np.ascontiguousarray(state.T).view(np.uint64)


class _PrecomputedSeedSequence(np.random.bit_generator.ISeedSequence):
    """A spawned member sequence whose seeding words are already derived.

    Quacks like the ``SeedSequence`` that ``member_rng`` builds — same
    ``entropy``/``spawn_key`` (consumed by ``RngPool.spawn`` and the
    attack-episode memo key), same ``generate_state(4, np.uint64)`` words
    (consumed by ``PCG64``) — without re-running the scalar entropy mixing.
    """

    __slots__ = ("entropy", "spawn_key", "pool_size", "_words")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...],
                 words: np.ndarray) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = _SS_POOL_SIZE
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:
            return self._words
        # Off-profile request (nothing in the tree does this): fall back to
        # the real sequence rather than extend the vectorised derivation.
        return np.random.SeedSequence(
            entropy=self.entropy,
            spawn_key=self.spawn_key).generate_state(n_words, dtype)


class MemberRngBatch:
    """Vectorised stand-in for per-member ``member_rng`` calls.

    Derives the PCG64 seeding words of every requested member in one
    array pass at construction; ``rng(user_id)`` then builds the member's
    generator in ~2 us instead of ~14 us.  Bit-identical to ``member_rng``
    by construction (see ``_batched_member_words``).
    """

    __slots__ = ("_seed", "_words")

    def __init__(self, seed: int, user_ids: "list[int]") -> None:
        self._seed = seed
        if user_ids and (min(user_ids) < 0 or max(user_ids) > _U32_MASK):
            # Ids outside the single-word coercion range (never produced by
            # the planner) would change the assembled-entropy layout; the
            # scalar path handles them.
            self._words = {}
        else:
            words = _batched_member_words(seed, user_ids)
            self._words = {user_id: words[i]
                           for i, user_id in enumerate(user_ids)}

    def rng(self, user_id: int) -> np.random.Generator:
        words = self._words.get(user_id)
        if words is None:
            return member_rng(self._seed, user_id)
        sequence = _PrecomputedSeedSequence(
            self._seed, (_SPAWN_NAMESPACE, user_id), words)
        return np.random.Generator(np.random.PCG64(sequence))


class UserMaterializer:
    """Materializes one user's planned sessions into concrete scripts.

    All randomness comes from the user's own spawned stream (one
    :class:`RngPool` shared with the per-user file/operation/gap models), and
    all allocated identifiers live in the user's namespaces, so the produced
    scripts are a pure function of ``(config, user plan, popular pool)``.
    """

    def __init__(self, config: WorkloadConfig, user: User,
                 popular_pool: PopularContentPool | None,
                 diurnal: DiurnalProfile,
                 rng: np.random.Generator | None = None):
        self.config = config
        self.user = user
        if rng is None:
            rng = member_rng(config.seed, user.user_id)
        # One pool shared by every per-user model, with a small block: most
        # users draw a few dozen scalars, so a 4096-draw refill per user
        # would generate ~100x more random bits than the workload consumes.
        pool = RngPool(rng, block=256)
        self._rng = rng
        self._pool = pool
        self._diurnal = diurnal
        self._popular_pool = popular_pool
        # The file and gap models are built on demand (_ensure_models):
        # most users plan cold/auth-failing sessions only, which touch no
        # files and draw no operation gaps — their materialization skips
        # the model setup and the pre-existing-file draws entirely (both
        # are unobservable without an active session, and the skip depends
        # only on the plan, so determinism is unaffected).
        self._file_model: FileModel | None = None
        self._gaps: BurstGapSampler | None = None
        self._id_base = user.user_id << _ID_BITS
        self._next_local_node = 0
        self._next_local_volume = 0
        self._update_attempt = min(config.update_fraction
                                   * _UPDATE_ATTEMPT_BOOST, 0.95)
        # Per-session pre-drawn operand streams (see _build_active): one
        # block per operation type, consumed positionally by the dispatch.
        self._up_rolls = iter(())
        self._up_pick_u = iter(())
        self._dl_rolls = iter(())
        self._dl_pick_u = iter(())
        self._mk_rolls = iter(())
        self._file_feed = iter(())

    def _ensure_models(self) -> None:
        """Build the per-user file/gap models (first active session)."""
        if self._file_model is not None:
            return
        config = self.config
        self._file_model = FileModel(
            self._pool,
            duplicate_fraction=config.duplicate_fraction,
            duplicate_zipf_exponent=config.duplicate_zipf_exponent,
            max_size_bytes=config.max_file_bytes,
            shared_pool=self._popular_pool,
            hash_namespace=f"u{self.user.user_id:x}-",
        )
        self._gaps = BurstGapSampler(self._pool, alpha=config.burst_alpha,
                                     theta=config.burst_theta,
                                     cap=config.burst_cap)

    # ------------------------------------------------------------------ ids
    def _new_node_id(self) -> int:
        self._next_local_node += 1
        return self._id_base + self._next_local_node

    def _new_volume_id(self) -> int:
        self._next_local_volume += 1
        return self._id_base + self._next_local_volume

    # -------------------------------------------------------- initial state
    def _init_user_state(self, with_files: bool = True) -> _UserState:
        user = self.user
        state = _UserState(user=user)
        root = _VolumeState(volume_id=self._new_volume_id(),
                            volume_type=VolumeType.ROOT)
        state.volumes[root.volume_id] = root
        state.root_id = root.volume_id
        user.volume_ids.append(root.volume_id)
        for _ in range(user.udf_volumes):
            udf = _VolumeState(volume_id=self._new_volume_id(),
                               volume_type=VolumeType.UDF)
            state.volumes[udf.volume_id] = udf
            user.volume_ids.append(udf.volume_id)
        for _ in range(user.shared_volumes):
            shared = _VolumeState(volume_id=self._new_volume_id(),
                                  volume_type=VolumeType.SHARED)
            state.volumes[shared.volume_id] = shared
            user.volume_ids.append(shared.volume_id)

        # Pre-existing files (uploaded before the measurement window) so that
        # download-only users have something to read and RAR dependencies are
        # possible without a preceding in-trace write.  Drawn as one block:
        # contents/sizes/extensions from the file model's vectorised sampler,
        # volume assignments from one cumulative-weight search.  Skipped for
        # users without active sessions (``with_files=False``): cold and
        # auth-failing sessions never reference a file.
        if not with_files:
            return state
        state.table = _FileTable()
        if user.user_class is not UserClass.OCCASIONAL:
            expected = 4.0 * (1.0 + min(user.activity_weight, 20.0))
            n_files = int(self._rng.poisson(expected))
        else:
            n_files = int(self._rng.poisson(0.5))
        if n_files:
            created = self.config.start_time - 1.0
            entries = self._file_model.sample_new_files(n_files)
            volumes, cumulative = self._volume_tables(state)
            picks = np.searchsorted(
                np.asarray(cumulative),
                self._rng.random(n_files) * cumulative[-1], side="right")
            np.minimum(picks, len(volumes) - 1, out=picks)
            node_ids: list[int] = []
            sizes: list[int] = []
            files = state.files
            for volume_index, (content_hash, size, extension) in zip(
                    picks.tolist(), entries):
                volume = volumes[volume_index]
                node_id = self._new_node_id()
                files[node_id] = _FileState(
                    node_id=node_id, volume_id=volume.volume_id,
                    volume_type=volume.volume_type, size_bytes=size,
                    content_hash=content_hash, extension=extension,
                    created=created, last_write=created)
                volume.file_ids.add(node_id)
                node_ids.append(node_id)
                sizes.append(size)
            state.table.add_block(node_ids, created, sizes)
        return state

    def _volume_tables(self, state: _UserState) -> tuple[list[_VolumeState], list[float]]:
        cache = state.volume_cache
        if cache is None:
            volumes = list(state.volumes.values())
            cumulative: list[float] = []
            total = 0.0
            for volume in volumes:
                total += 3.0 if volume.volume_type is VolumeType.ROOT else 1.0
                cumulative.append(total)
            cache = (volumes, cumulative)
            state.volume_cache = cache
        return cache

    def _pick_volume(self, state: _UserState) -> _VolumeState:
        volumes, cumulative = self._volume_tables(state)
        if len(volumes) == 1:
            return volumes[0]
        u = self._pool.random() * cumulative[-1]
        for volume, bound in zip(volumes, cumulative):
            if u < bound:
                return volume
        return volumes[-1]

    def _create_file(self, state: _UserState, created: float) -> _FileState:
        volume = self._pick_volume(state)
        # In-session creates consume the session's pre-drawn file-entry
        # feed (upper-bounded by the ops that can create files); the
        # fallback only fires for callers outside a session build.
        entry = next(self._file_feed, None)
        if entry is None:
            entry = self._file_model.sample_new_file()
        content_hash, size, extension = entry
        file_state = _FileState(
            node_id=self._new_node_id(),
            volume_id=volume.volume_id,
            volume_type=volume.volume_type,
            size_bytes=size,
            content_hash=content_hash,
            extension=extension,
            created=created,
            last_write=created,
        )
        state.files[file_state.node_id] = file_state
        state.table.add(file_state.node_id, created, size)
        volume.file_ids.add(file_state.node_id)
        return file_state

    def _drop_file(self, state: _UserState, node_id: int) -> None:
        state.files.pop(node_id, None)
        state.table.remove(node_id)
        state.pending_uploads.discard(node_id)

    # -------------------------------------------------------- operand logic
    def _weighted_file_choice(self, state: _UserState, now: float,
                              favour_recent_writes: bool,
                              favour_popular: bool,
                              favour_large: bool,
                              penalise_already_synced: bool = False) -> _FileState | None:
        node_id = state.table.pick_weighted(
            now, self._pool.random(),
            favour_recent_writes=favour_recent_writes,
            favour_popular=favour_popular, favour_large=favour_large,
            penalise_already_synced=penalise_already_synced)
        return None if node_id is None else state.files[node_id]

    def _pick_update_target(self, state: _UserState, now: float) -> _FileState | None:
        """Choose the file an update rewrites.

        Updates disproportionately hit larger, recently and frequently
        edited files (documents under revision, tagged media) — the editing
        bursts that chain into the WAW dependencies of Fig. 3a; they also
        account for ~18.5 % of upload bytes while being only ~10 % of
        uploads.
        """
        node_id = state.table.pick_update(now, next(self._up_pick_u))
        return None if node_id is None else state.files[node_id]

    def _pick_download_target(self, state: _UserState, now: float) -> _FileState | None:
        """Choose the file a download reads.

        U1 is backup-flavoured: most uploads are never read back, and the
        downloads that do happen are dominated by repeated reads of popular
        content (the RAR dependencies and the per-file download tail of
        Fig. 3b) and by new content appearing from other devices or shares.
        Only a modest share synchronises just-written files — which is what
        keeps WAW, not RAW, the most common same-file dependency (Fig. 3a).
        """
        roll = next(self._dl_rolls)
        if roll < _DL_SYNC_SHARE:
            node_id = state.table.pick_unsynced(now, next(self._dl_pick_u))
            if node_id is not None:
                return state.files[node_id]
        if state.files and roll < _DL_KNOWN_SHARE:
            node_id = state.table.pick_reread(next(self._dl_pick_u))
            if node_id is not None:
                return state.files[node_id]
        # New remote content (another device or a share) appears and is synced.
        return self._create_file(state, created=now)

    def _materialize(self, state: _UserState, op: int, t: float,
                     cols: tuple[list, ...]) -> None:
        """Turn one chain-state index into event columns, updating state.

        Dispatches on the small-integer chain state (most frequent branches
        first); every stochastic choice consumes the session's pre-drawn
        operand blocks, while the table/pending-upload/volume bookkeeping —
        the truly state-dependent residue — stays scalar.  The event is
        emitted by appending one scalar per struct-of-arrays column of the
        session's :class:`EventBlock` (``cols``); operations that resolve
        to nothing (empty table, tombstoned pending upload) append nothing.
        """
        (c_time, c_op, c_node, c_vol, c_vtype, c_kind, c_size, c_hash,
         c_ext, c_upd) = cols
        user = state.user

        if op == _OP_DOWNLOAD:
            target = self._pick_download_target(state, t)
            if target is None:
                c_time.append(t); c_op.append(ApiOperation.GET_DELTA)
                c_node.append(0); c_vol.append(state.root_id)
                c_vtype.append(VolumeType.ROOT); c_kind.append(NodeKind.FILE)
                c_size.append(0); c_hash.append(""); c_ext.append("")
                c_upd.append(False)
                return
            target.last_read = t
            target.reads += 1
            state.table.touch_read(target.node_id, t)
            c_time.append(t); c_op.append(ApiOperation.DOWNLOAD)
            c_node.append(target.node_id); c_vol.append(target.volume_id)
            c_vtype.append(target.volume_type); c_kind.append(NodeKind.FILE)
            c_size.append(target.size_bytes)
            c_hash.append(target.content_hash); c_ext.append(target.extension)
            c_upd.append(False)
            return

        if op == _OP_UPLOAD:
            update_target = None
            if state.files and next(self._up_rolls) < self._update_attempt:
                update_target = self._pick_update_target(state, t)
            if update_target is not None \
                    and update_target.node_id not in state.pending_uploads:
                new_hash, new_size = self._file_model.sample_updated_content(
                    update_target.extension, update_target.size_bytes)
                update_target.content_hash = new_hash
                update_target.size_bytes = new_size
                update_target.last_write = t
                update_target.writes += 1
                state.table.touch_write(update_target.node_id, t, new_size)
                c_time.append(t); c_op.append(ApiOperation.UPLOAD)
                c_node.append(update_target.node_id)
                c_vol.append(update_target.volume_id)
                c_vtype.append(update_target.volume_type)
                c_kind.append(NodeKind.FILE)
                c_size.append(new_size); c_hash.append(new_hash)
                c_ext.append(update_target.extension); c_upd.append(True)
                return
            if state.pending_uploads:
                node_id = state.pending_uploads.popleft()
                file_state = state.files.get(node_id)
                if file_state is None:
                    return
                file_state.last_write = t
                state.table.touch_write(node_id, t)
            else:
                file_state = self._create_file(state, created=t)
            c_time.append(t); c_op.append(ApiOperation.UPLOAD)
            c_node.append(file_state.node_id)
            c_vol.append(file_state.volume_id)
            c_vtype.append(file_state.volume_type); c_kind.append(NodeKind.FILE)
            c_size.append(file_state.size_bytes)
            c_hash.append(file_state.content_hash)
            c_ext.append(file_state.extension); c_upd.append(False)
            return

        if op == _OP_MAKE:
            if next(self._mk_rolls) < 0.30:
                volume = self._pick_volume(state)
                volume.directory_count += 1
                c_time.append(t); c_op.append(ApiOperation.MAKE)
                c_node.append(self._new_node_id())
                c_vol.append(volume.volume_id)
                c_vtype.append(volume.volume_type)
                c_kind.append(NodeKind.DIRECTORY)
                c_size.append(0); c_hash.append(""); c_ext.append("")
                c_upd.append(False)
                return
            file_state = self._create_file(state, created=t)
            state.pending_uploads.append(file_state.node_id)
            c_time.append(t); c_op.append(ApiOperation.MAKE)
            c_node.append(file_state.node_id)
            c_vol.append(file_state.volume_id)
            c_vtype.append(file_state.volume_type); c_kind.append(NodeKind.FILE)
            c_size.append(0); c_hash.append(""); c_ext.append("")
            c_upd.append(False)
            return

        if op == _OP_UNLINK:
            if not state.files:
                return
            target = None
            if self._pool.random() < self.config.short_lived_file_fraction:
                node_id = state.table.pick_recent_created(t, 8 * HOUR,
                                                          self._pool.random())
                if node_id is not None:
                    target = state.files[node_id]
            if target is None:
                target = self._weighted_file_choice(state, t, favour_recent_writes=False,
                                                    favour_popular=False, favour_large=False)
            if target is None:
                return
            self._drop_file(state, target.node_id)
            volume = state.volumes.get(target.volume_id)
            if volume is not None:
                volume.file_ids.discard(target.node_id)
            c_time.append(t); c_op.append(ApiOperation.UNLINK)
            c_node.append(target.node_id); c_vol.append(target.volume_id)
            c_vtype.append(target.volume_type); c_kind.append(NodeKind.FILE)
            c_size.append(0); c_hash.append(""); c_ext.append(target.extension)
            c_upd.append(False)
            return

        if op == _OP_MOVE:
            target = self._weighted_file_choice(state, t, favour_recent_writes=False,
                                                favour_popular=False, favour_large=False)
            if target is None:
                return
            c_time.append(t); c_op.append(ApiOperation.MOVE)
            c_node.append(target.node_id); c_vol.append(target.volume_id)
            c_vtype.append(target.volume_type); c_kind.append(NodeKind.FILE)
            c_size.append(0); c_hash.append(""); c_ext.append(target.extension)
            c_upd.append(False)
            return

        if op == _OP_CREATE_UDF:
            udf = _VolumeState(volume_id=self._new_volume_id(),
                               volume_type=VolumeType.UDF)
            state.volumes[udf.volume_id] = udf
            state.volume_cache = None
            user.volume_ids.append(udf.volume_id)
            c_time.append(t); c_op.append(ApiOperation.CREATE_UDF)
            c_node.append(0); c_vol.append(udf.volume_id)
            c_vtype.append(VolumeType.UDF); c_kind.append(NodeKind.DIRECTORY)
            c_size.append(0); c_hash.append(""); c_ext.append("")
            c_upd.append(False)
            return

        if op == _OP_DELETE_VOLUME:
            udf_ids = state.udf_volume_ids()
            if not udf_ids:
                return
            volume_id = udf_ids[self._pool.integers(len(udf_ids))]
            volume = state.volumes.pop(volume_id)
            state.volume_cache = None
            for node_id in volume.file_ids:
                self._drop_file(state, node_id)
            c_time.append(t); c_op.append(ApiOperation.DELETE_VOLUME)
            c_node.append(0); c_vol.append(volume_id)
            c_vtype.append(VolumeType.UDF); c_kind.append(NodeKind.DIRECTORY)
            c_size.append(0); c_hash.append(""); c_ext.append("")
            c_upd.append(False)
            return

        # Maintenance operations carry no operand beyond the root volume.
        c_time.append(t); c_op.append(CHAIN_OPS[op])
        c_node.append(0); c_vol.append(state.root_id)
        c_vtype.append(VolumeType.ROOT); c_kind.append(NodeKind.FILE)
        c_size.append(0); c_hash.append(""); c_ext.append("")
        c_upd.append(False)

    # ------------------------------------------------------------- sessions
    def _build_session(self, state: _UserState, spec: SessionSpec) -> SessionScript:
        if spec.auth_fails:
            # Failed authentications never establish a session; the script is
            # kept (it still hits the auth service) but carries no events.
            return SessionScript(user_id=self.user.user_id,
                                 session_id=spec.session_id,
                                 start=spec.start, end=spec.end,
                                 auth_failed=True)
        if spec.active:
            block = self._build_active(state, spec)
        else:
            block = self._build_cold(state, spec)
        return SessionScript(user_id=self.user.user_id,
                             session_id=spec.session_id,
                             start=spec.start, end=spec.end, block=block)

    def _build_cold(self, state: _UserState, spec: SessionSpec) -> EventBlock:
        """Cold session: occasional maintenance polls so that long idle
        sessions still register as "online" activity."""
        pool = self._pool
        end = spec.end
        times: list[float] = []
        operations: list[ApiOperation] = []
        get_delta = ApiOperation.GET_DELTA
        query_caps = ApiOperation.QUERY_SET_CAPS
        t = spec.start + 1.0
        while t < end:
            operations.append(get_delta if pool.random() < 0.6
                              else query_caps)
            times.append(t)
            t += 4 * HOUR + 6 * HOUR * pool.random()
        # Maintenance polls touch nothing but the root volume: every other
        # column is one scalar constant for the whole block.
        return EventBlock(times=times, operations=operations,
                          volume_ids=state.root_id)

    def _build_active(self, state: _UserState,
                      spec: SessionSpec) -> EventBlock:
        """Materialize an active session from array-drawn structure.

        The session's stochastic skeleton is drawn up front instead of
        event by event: every inter-operation gap comes from one
        ``sample_many`` block, the whole timeline (and its truncation at
        the session end) is one cumulative sum, the per-step download
        biases are one vectorised diurnal evaluation, and the operation
        sequence is an inverse-CDF walk over the user class's compiled
        transition tables driven by one pre-drawn uniform block.  The
        remaining per-event work — operand choice against the live file
        table, volume bookkeeping, pending-upload coupling — consumes
        per-type pre-drawn operand blocks inside the dispatch loop.
        """
        pool = self._pool
        rng = self._rng
        end = spec.end
        t0 = spec.start + 0.2 + 2.8 * pool.random()
        n = spec.n_ops
        if n > 1:
            times = np.empty(n)
            times[0] = 0.0
            np.cumsum(self._gaps.sample_many(n - 1), out=times[1:])
            times += t0
            k = int(np.searchsorted(times, end))
        else:
            times = np.full(1, t0)
            k = 1 if t0 < end else 0
        if k == 0:
            return EventBlock(times=[], operations=[])
        if k < n:
            times = times[:k]
        user = self.user
        allow_volume_ops = user.udf_volumes > 0 or pool.random() < 0.3
        chain = compiled_chain(user.user_class, allow_volume_ops)
        ops = chain.walk(pool.random(), rng.random(k - 1),
                         self._diurnal.download_bias_array(times[1:]))
        counts = np.bincount(ops, minlength=len(CHAIN_OPS)).tolist()
        n_uploads = counts[_OP_UPLOAD]
        n_downloads = counts[_OP_DOWNLOAD]
        n_makes = counts[_OP_MAKE]
        # One uniform block covers every typed operand stream of the
        # session: update rolls + pick selectors per upload, target rolls +
        # two pick selectors per download, directory rolls per make.
        block = rng.random(2 * n_uploads + 3 * n_downloads + n_makes).tolist()
        stop_up = 2 * n_uploads
        stop_dl = stop_up + 3 * n_downloads
        self._up_rolls = iter(block[:n_uploads])
        self._up_pick_u = iter(block[n_uploads:stop_up])
        self._dl_rolls = iter(block[stop_up:stop_up + n_downloads])
        self._dl_pick_u = iter(block[stop_up + n_downloads:stop_dl])
        self._mk_rolls = iter(block[stop_dl:])
        # Pre-drawn file entries for the session's creates, sized to the
        # *expected* creation mix (file-makes ~70 % of makes, fresh remote
        # content ~2/5 of downloads) plus slack; the draws are i.i.d., so
        # consuming a prefix — or falling back to scalar draws once the
        # feed runs dry — leaves the per-file distribution unchanged.
        n_creates = n_makes + (2 * n_downloads) // 5 + 8
        self._file_feed = iter(self._file_model.sample_new_files(n_creates))
        root = state.root_id
        chain_ops = CHAIN_OPS
        cols: tuple[list, ...] = tuple([] for _ in range(10))
        (c_time, c_op, c_node, c_vol, c_vtype, c_kind, c_size, c_hash,
         c_ext, c_upd) = cols
        root_type = VolumeType.ROOT
        file_kind = NodeKind.FILE
        materialize = self._materialize
        for t, op in zip(times.tolist(), ops):
            if op < _FIRST_STATEFUL:
                # Maintenance operations touch no operand state at all;
                # emit their columns inline instead of paying the dispatch.
                c_time.append(t); c_op.append(chain_ops[op])
                c_node.append(0); c_vol.append(root)
                c_vtype.append(root_type); c_kind.append(file_kind)
                c_size.append(0); c_hash.append(""); c_ext.append("")
                c_upd.append(False)
                continue
            materialize(state, op, t, cols)
        return EventBlock(times=c_time, operations=c_op, node_ids=c_node,
                          volume_ids=c_vol, volume_types=c_vtype,
                          node_kinds=c_kind, size_bytes=c_size,
                          content_hashes=c_hash, extensions=c_ext,
                          is_updates=c_upd)

    # ------------------------------------------------------------------ API
    def materialize(self, plan: UserPlan) -> list[SessionScript]:
        """All of this user's session scripts, in chronological order."""
        has_active = any(spec.active for spec in plan.sessions)
        if has_active:
            self._ensure_models()
        state = self._init_user_state(with_files=has_active)
        scripts = []
        for spec in plan.sessions:
            script = self._build_session(state, spec)
            script.member_planned_ops = plan.planned_ops
            scripts.append(script)
        return scripts


def _materialize_attack(config: WorkloadConfig, plan: AttackPlan,
                        rng: np.random.Generator | None = None
                        ) -> list[SessionScript]:
    """Materialize one DDoS episode slice from the attacker's own stream."""
    if rng is None:
        rng = member_rng(config.seed, plan.episode.attacker_user_id)
    return list(plan.episode.generate_sessions(
        rng, plan.baseline_sessions_per_hour,
        plan.baseline_storage_ops_per_hour,
        session_id_start=plan.session_id_start,
        member_planned_ops=plan.planned_ops,
        session_range=plan.sessions_slice))


def _member_user_id(plan: WorkloadPlan, index: int) -> int:
    """The stream-owning user id of one plan member (user or attacker)."""
    n_users = len(plan.users)
    if index < n_users:
        return plan.users[index].user.user_id
    return plan.attacks[index - n_users].episode.attacker_user_id


def materialize_member(plan: WorkloadPlan, index: int,
                       diurnal: DiurnalProfile | None = None,
                       rng_batch: MemberRngBatch | None = None
                       ) -> list[SessionScript]:
    """Materialize one plan member (user or attack slice) into scripts."""
    config = plan.config
    n_users = len(plan.users)
    if index < n_users:
        user_plan = plan.users[index]
        if not user_plan.sessions:
            # No sessions -> no scripts; skip building the materializer (the
            # user's stream is independent, so skipping draws nothing).
            return []
        if diurnal is None:
            diurnal = DiurnalProfile(
                peak_to_trough=config.diurnal_peak_to_trough,
                weekend_factor=config.weekend_factor)
        rng = (rng_batch.rng(user_plan.user.user_id)
               if rng_batch is not None else None)
        materializer = UserMaterializer(config, user_plan.user,
                                        plan.popular_pool, diurnal, rng=rng)
        scripts = materializer.materialize(user_plan)
    else:
        attack_plan = plan.attacks[index - n_users]
        rng = (rng_batch.rng(attack_plan.episode.attacker_user_id)
               if rng_batch is not None else None)
        scripts = _materialize_attack(config, attack_plan, rng=rng)
    for script in scripts:
        script.plan_member = index
    return scripts


def _script_order(script: SessionScript) -> tuple[float, int]:
    """Canonical script order: ``(start, session_id)``.

    Session ids are globally unique and allocated by the plan, so this is a
    total order — materializing any partition of the members and sorting
    each part yields per-shard streams whose stable merge equals the
    unsharded generator output, independent of partition shape.
    """
    return (script.start, script.session_id)


def materialize_members(plan: WorkloadPlan,
                        members: Sequence[int] | None = None) -> list[SessionScript]:
    """Materialize plan members (default: all) sorted in canonical order."""
    config = plan.config
    diurnal = DiurnalProfile(peak_to_trough=config.diurnal_peak_to_trough,
                             weekend_factor=config.weekend_factor)
    indices = range(plan.n_members) if members is None else members
    # One vectorised derivation covers every member stream of the batch
    # (duplicate ids — a user appearing in several attack slices — cost one
    # derivation each way, so dict-deduping them is free and harmless).
    member_ids = sorted({_member_user_id(plan, index) for index in indices})
    rng_batch = MemberRngBatch(config.seed, member_ids)
    scripts: list[SessionScript] = []
    for index in indices:
        scripts.extend(materialize_member(plan, index, diurnal=diurnal,
                                          rng_batch=rng_batch))
    scripts.sort(key=_script_order)
    return scripts


# ---------------------------------------------------------------------------
# The generator façade: global planning + convenience materialization
# ---------------------------------------------------------------------------

class SyntheticTraceGenerator:
    """Generates a synthetic U1 workload from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig):
        config.validate()
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._pool = RngPool(self._rng)
        self._diurnal = DiurnalProfile(
            peak_to_trough=config.diurnal_peak_to_trough,
            weekend_factor=config.weekend_factor,
        )
        # Plan-time file model: mints the shared popular-content pool every
        # per-user materializer duplicates from.
        self._file_model = FileModel(
            self._pool,
            duplicate_fraction=config.duplicate_fraction,
            duplicate_zipf_exponent=config.duplicate_zipf_exponent,
            max_size_bytes=config.max_file_bytes,
            hash_namespace="pop-",
        )
        self._session_model = SessionModel(config, self._rng, self._diurnal)
        self._population = build_population(config, self._rng)

    @property
    def population(self) -> list[User]:
        """The synthetic user population."""
        return self._population

    # ------------------------------------------------------------- planning
    def _sample_ops_count(self, user: User) -> int:
        base = self.config.mean_ops_per_active_session
        weight_factor = 0.5 + min(user.activity_weight, 50.0)
        heavy_tail = self._pool.pareto(1.15) + 0.3
        count = int(base * heavy_tail * weight_factor / 5.0) + 1
        return min(count, self.config.max_ops_per_session)

    def plan(self) -> WorkloadPlan:
        """The global planning pass (see :mod:`repro.workload.plan`).

        Consumes the generator's root RNG stream, so each call plans a fresh
        (equally likely) realisation; everything downstream of the returned
        plan — materialization, sharding, replay — is deterministic in it.
        """
        with cyclic_gc_paused():
            return self._plan()

    def _plan(self) -> WorkloadPlan:
        config = self.config
        user_plans: list[UserPlan] = []
        session_id = 0
        planned_storage_ops = 0.0
        # Expected inter-operation gap E[min(pareto(alpha, theta), cap)]:
        # sessions stop materializing operations when the pre-drawn timeline
        # passes their end, so the *expected realized* operation count of an
        # active session is min(n_ops, 1 + length / E[gap]) — using the raw
        # drawn n_ops would overweight long heavy-tail draws that a short
        # session truncates, inflating both the attack-rate baseline and the
        # LPT weights.  The formula matches the block-drawn gap stream
        # (sample_many) exactly: truncation by cumulative-sum cutoff realises
        # the same per-gap distribution as the historical scalar loop.
        mean_gap = BurstGapSampler.mean_truncated_gap(
            config.burst_alpha, config.burst_theta, config.burst_cap)
        for user in self._population:
            specs: list[SessionSpec] = []
            weight = 0.0
            for p in self._session_model.plan_user_sessions(user):
                session_id += 1
                n_ops = 0
                if p.auth_fails:
                    weight += 0.25
                elif p.active:
                    n_ops = self._sample_ops_count(user)
                    expected = min(float(n_ops), 1.0 + p.length / mean_gap)
                    weight += 1.0 + expected
                    planned_storage_ops += expected
                else:
                    # Cold sessions only poll every 4-10 h; weigh them by the
                    # expected number of maintenance interactions.
                    weight += 1.0 + p.length / (7.0 * HOUR)
                specs.append(SessionSpec(session_id=session_id, start=p.start,
                                         length=p.length, active=p.active,
                                         auth_fails=p.auth_fails, n_ops=n_ops))
            user_plans.append(UserPlan(user=user, sessions=tuple(specs),
                                       planned_ops=weight))

        # Attack episodes are scaled from the *planned* legitimate baseline
        # (the realized baseline is not known before materialization, which
        # now happens inside the replay workers).
        duration_hours = max(config.duration_days * 24.0, 1e-9)
        legit_sessions_per_hour = max(session_id / duration_hours, 1.0)
        legit_storage_per_hour = max(planned_storage_ops / duration_hours, 1.0)
        episodes = build_attack_episodes(
            config,
            first_attacker_id=config.n_users + 1,
            first_node_id=10_000_000,
            first_volume_id=10_000_000,
        )
        attack_plans: list[AttackPlan] = []
        for episode in episodes:
            n_sessions, n_storage_ops = episode.planned_size(
                legit_sessions_per_hour, legit_storage_per_hour)
            # Cut the episode into session-range slices — independent plan
            # members the LPT assignment can spread across shards, so one
            # botnet flood no longer defines the replay's critical path.
            n_slices = max(1, (n_sessions + _ATTACK_SLICE_SESSIONS - 1)
                           // _ATTACK_SLICE_SESSIONS)
            bounds = [round(k * n_sessions / n_slices)
                      for k in range(n_slices + 1)]
            episode_weight = float(n_sessions + n_storage_ops)
            for k in range(n_slices):
                lo, hi = bounds[k], bounds[k + 1]
                share = (hi - lo) / n_sessions
                attack_plans.append(AttackPlan(
                    episode=episode,
                    baseline_sessions_per_hour=legit_sessions_per_hour,
                    baseline_storage_ops_per_hour=legit_storage_per_hour,
                    session_id_start=session_id,
                    sessions_slice=(lo, hi),
                    n_storage_ops=round(n_storage_ops * share),
                    planned_ops=episode_weight * share))
            session_id += n_sessions

        # Shared popular-content pool, sized to the planned workload (the
        # lazy-growth model minted roughly 0.3 entries per duplicate draw).
        expected_creations = 0.5 * planned_storage_ops + 8.0 * len(self._population)
        pool_size = int(0.3 * config.duplicate_fraction * expected_creations)
        pool_size = max(32, min(pool_size, 200_000))
        popular_pool = PopularContentPool.build(
            self._file_model, pool_size,
            zipf_exponent=config.duplicate_zipf_exponent)

        return WorkloadPlan(config=config, users=tuple(user_plans),
                            attacks=tuple(attack_plans),
                            popular_pool=popular_pool)

    # ------------------------------------------------------------------ API
    def client_events(self) -> list[SessionScript]:
        """Generate every session script of the measurement window.

        Equivalent to planning and materializing every member in-process:
        the result is sorted by ``(start, session_id)`` and includes both
        the legitimate workload and the configured DDoS episodes.
        Generation is a cycle-free bulk allocation, so the cyclic garbage
        collector is paused for the duration (see :mod:`repro.util.gctools`).
        """
        with cyclic_gc_paused():
            return materialize_members(self._plan())

    # ------------------------------------------------------------ rendering
    def _placement(self) -> tuple[str, int]:
        """Random (machine, process) placement used when no simulator runs."""
        machine = self._pool.integers(self.config.api_machines)
        process = self._pool.integers(self.config.processes_per_machine)
        return f"api{machine}", process

    def generate(self) -> TraceDataset:
        """Render the workload directly into a :class:`TraceDataset`.

        The records produced here carry client-observable information only
        (no RPC decomposition, no service times); analyses of the metadata
        back-end (Figs. 12-14) require running the same scripts through
        :class:`repro.backend.cluster.U1Cluster` instead.
        """
        dataset = TraceDataset()
        shards = self.config.metadata_shards
        # Row-append fast paths (positional record-field order); record
        # objects are only built if an analysis iterates the dataset.
        session_row = dataset.append_session_row
        storage_row = dataset.append_storage_row
        for script in self.client_events():
            server, process = self._placement()
            shard_id = script.user_id % shards
            user_id = script.user_id
            session_id = script.session_id
            attack = script.caused_by_attack
            session_row(script.start, server, process, user_id, session_id,
                        SessionEvent.AUTH_REQUEST, attack, -1.0, 0)
            if script.auth_failed:
                session_row(script.start, server, process, user_id, session_id,
                            SessionEvent.AUTH_FAIL, attack, -1.0, 0)
                continue
            session_row(script.start, server, process, user_id, session_id,
                        SessionEvent.AUTH_OK, attack, -1.0, 0)
            session_row(script.start, server, process, user_id, session_id,
                        SessionEvent.CONNECT, attack, -1.0, 0)
            for event in script.events:
                storage_row(event.time, server, process, event.user_id,
                            event.session_id, event.operation, event.node_id,
                            event.volume_id, event.volume_type, event.node_kind,
                            event.size_bytes, event.content_hash,
                            event.extension, event.is_update, shard_id,
                            event.caused_by_attack, "", 0)
            session_row(script.end, server, process, user_id, session_id,
                        SessionEvent.DISCONNECT, attack, script.length,
                        script.storage_operation_count)
        dataset.sort()
        return dataset
