"""Top-level synthetic trace generator (plan/materialize split).

:class:`SyntheticTraceGenerator` stitches together the population, file,
session, operation and attack models into a :class:`WorkloadPlan`, from
which :func:`materialize_members` builds the table of client session scripts
that :meth:`repro.backend.cluster.U1Cluster.replay_plan` replays.

Since PR 3 generation is split into two passes:

* :meth:`SyntheticTraceGenerator.plan` is the cheap **global planning
  pass**: it draws everything that needs cross-user totals from the one
  seeded root stream — every user's session plans (including each active
  session's planned operation count, drawn population-wide by
  :meth:`~repro.workload.sessionmodel.SessionModel.plan_sessions`),
  globally allocated session ids, the DDoS rate normalisation and the
  shared popular-content pool that keeps cross-user dedup alive.
* :func:`materialize_members` is the **per-user materialization pass**: it
  turns plan members (users or attack episodes) into one typed
  :class:`~repro.workload.events.ScriptTable` per replay shard.  Every
  member draws exclusively from its own RNG stream spawned from ``(seed,
  member user id)``, and node / volume / content-hash identifiers live in
  per-user namespaces, so the realised workload is a pure function of
  ``(config, plan member)`` — independent of which replay shard (or worker
  process) materializes it, and bit-identical to running the whole
  generator unsharded.

The per-user materializer maintains the *client-side namespace state* of its
user — volumes, directories and files, together with their sizes, content
hashes and read/write history — so that the emitted operations are
structurally consistent: downloads read files that exist, updates rewrite
files that were uploaded before, unlinks delete live nodes, and the per-file
operation dependencies (Fig. 3) emerge from the same
editing/synchronisation behaviour the paper describes.

Materialization is column-at-a-time over a whole batch of members (see
:class:`_BatchMaterializer`).  Each member draws from its own stream in a
fixed number of Generator calls: a skeleton block sized from its plan
(session start offsets, inter-operation gaps, chain draws, cold-session
polls), then an operand block of fixed-width lanes per realised operation.
Everything elementwise — Pareto gaps, download biases, chain transitions,
new-file entries, update jitters — runs once over the batch's concatenated
draws.  Only the truly state-dependent residue (file-table weight lookups,
volume bookkeeping, pending-upload coupling) stays in the per-event loop,
reading its uniforms by index from the operation's lanes.  All of it
preserves the invariant above: the realised workload remains a pure function
of ``(config, plan member)``, bit identical across any member partition and
any ``--jobs``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.trace.dataset import NODE_KIND_CODE, OPERATION_CODE, VOLUME_TYPE_CODE
from repro.trace.records import (
    ApiOperation,
    NodeKind,
    VolumeType,
)
from repro.util.gctools import cyclic_gc_paused
from repro.util.rngpool import RngPool
from repro.util.units import HOUR
from repro.workload.attacks import build_attack_episodes
from repro.workload.config import WorkloadConfig
from repro.workload.diurnal import DiurnalProfile
from repro.workload.events import ScriptRows, ScriptTable, ranges
from repro.workload.filemodel import (
    PROFILE_EXTENSIONS,
    FileModel,
    PopularContentPool,
    new_file_entries,
    update_jitter,
)
from repro.workload.opmodel import (
    CHAIN_OP_INDEX,
    CHAIN_OPS,
    BurstGapSampler,
    CompiledChain,
    compiled_chain,
    initial_state,
)
from repro.workload.plan import AttackPlan, SessionSpec, UserPlan, WorkloadPlan
from repro.workload.population import User, UserClass, build_population
from repro.workload.sessionmodel import SessionModel

__all__ = [
    "SyntheticTraceGenerator",
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

#: Trace codes of the event rows' enum fields (see
#: :class:`~repro.workload.events.ScriptTable`).
_CHAIN_CODES = [OPERATION_CODE[op] for op in CHAIN_OPS]
_MAKE = OPERATION_CODE[ApiOperation.MAKE]
_UPLOAD = OPERATION_CODE[ApiOperation.UPLOAD]
_DOWNLOAD = OPERATION_CODE[ApiOperation.DOWNLOAD]
_UNLINK = OPERATION_CODE[ApiOperation.UNLINK]
_MOVE = OPERATION_CODE[ApiOperation.MOVE]
_CREATE_UDF = OPERATION_CODE[ApiOperation.CREATE_UDF]
_DELETE_VOLUME = OPERATION_CODE[ApiOperation.DELETE_VOLUME]
_COLD_OPS = (OPERATION_CODE[ApiOperation.QUERY_SET_CAPS],
             OPERATION_CODE[ApiOperation.GET_DELTA])
_ROOT = VOLUME_TYPE_CODE[VolumeType.ROOT]
_UDF = VOLUME_TYPE_CODE[VolumeType.UDF]
_SHARED = VOLUME_TYPE_CODE[VolumeType.SHARED]
_FILE = NODE_KIND_CODE[NodeKind.FILE]
_DIRECTORY = NODE_KIND_CODE[NodeKind.DIRECTORY]


# ---------------------------------------------------------------------------
# Client-side namespace state
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _FileState:
    node_id: int
    volume_id: int
    volume_type: int  # VOLUME_TYPE_CODE
    size_bytes: int
    content_hash: str
    extension: str


@dataclass(slots=True)
class _VolumeState:
    volume_id: int
    volume_type: int  # VOLUME_TYPE_CODE
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

    __slots__ = ("node_ids", "rows", "created", "last_write", "last_read",
                 "reads", "size_bytes", "upd_base", "slot", "n", "scratch",
                 "unsynced")

    def __init__(self, capacity: int):
        # ``capacity`` bounds the files the table ever holds at once: the
        # materializer passes the member's operand-slot count, and every
        # slot creates at most one file.
        self.node_ids = np.zeros(capacity, dtype=np.int64)
        # The float columns are rows of one block, so a removal moves a
        # file's whole record with one copy.  ``upd_base`` is the
        # size-derived update-pick base weight (0.4 + min(size/1MB, 1.5)),
        # maintained incrementally so pick_update never recomputes it.
        # ``scratch`` is the vectorised picks' weight buffer (never holds
        # state across calls).
        self.rows = np.zeros((7, capacity))
        (self.created, self.last_write, self.last_read, self.reads,
         self.size_bytes, self.upd_base, self.scratch) = self.rows
        # Node ids with ``last_read < last_write`` (pending synchronisation),
        # maintained incrementally: O(1) membership churn per touch instead
        # of an O(n_files) scan per sync-download pick.
        self.unsynced: set[int] = set()
        self.slot: dict[int, int] = {}
        self.n = 0

    # -------------------------------------------------------------- updates
    def add(self, node_id: int, created: float, size_bytes: int) -> None:
        """Register a file created (written, never read) at ``created``."""
        i = self.n
        self.node_ids[i] = node_id
        self.created[i] = created
        self.last_write[i] = created
        self.last_read[i] = -1.0
        self.reads[i] = 0
        self.size_bytes[i] = size_bytes
        self.upd_base[i] = _update_base_weight(size_bytes)
        self.slot[node_id] = i
        self.unsynced.add(node_id)
        self.n += 1

    def add_block(self, node_ids: list[int], created: float,
                  sizes: list[int]) -> None:
        """Bulk-register files created at the same instant (initial state)."""
        i = self.n
        stop = i + len(node_ids)
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
            self.node_ids[i] = self.node_ids[last]
            self.rows[:6, i] = self.rows[:6, last]
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
    # is a lane of the calling operation's operand slot.

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

    def pick_uniform(self, u: float) -> int | None:
        """A uniformly chosen live file (unlink fallback, move target)."""
        n = self.n
        if n == 0:
            return None
        index = int(u * n)
        return int(self.node_ids[index if index < n else n - 1])

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


class _UserState:
    """One active user's client-side namespace during materialization.

    Node, volume and content-hash identifiers live in per-user namespaces:
    node and volume ids count up from ``user_id << _ID_BITS`` in creation
    order, and a minted content hash is named after the operand slot that
    minted it, so none of them depends on any other member.
    """

    __slots__ = ("user", "volumes", "files", "pending_uploads", "table",
                 "volume_cache", "root_id", "id_base", "next_node",
                 "next_volume", "slot_base", "n_files", "hash_prefix")

    def __init__(self, user: User, slot_base: int, n_files: int,
                 n_slots: int):
        self.user = user
        self.files: dict[int, _FileState] = {}
        self.pending_uploads = _PendingUploads()
        self.table = _FileTable(n_slots)
        self.id_base = user.user_id << _ID_BITS
        self.next_node = 0
        self.next_volume = 0
        #: Batch position of the member's first operand slot, and how many
        #: slots (the first ones) describe pre-existing files.
        self.slot_base = slot_base
        self.n_files = n_files
        self.hash_prefix = f"sha1:u{user.user_id:x}-"
        self.volumes: dict[int, _VolumeState] = {}
        # Volume choice cache (volume list, cumulative weights), rebuilt
        # only when the volume set changes (UDF creation/deletion is rare).
        self.volume_cache: tuple[list[_VolumeState], list[float]] | None = None
        self.add_volume(_ROOT)
        # The root volume is created first and never deleted.
        self.root_id = self.id_base + 1
        for _ in range(user.udf_volumes):
            self.add_volume(_UDF)
        for _ in range(user.shared_volumes):
            self.add_volume(_SHARED)

    def new_node_id(self) -> int:
        self.next_node += 1
        return self.id_base + self.next_node

    def add_volume(self, volume_type: int) -> _VolumeState:
        self.next_volume += 1
        volume = _VolumeState(volume_id=self.id_base + self.next_volume,
                              volume_type=volume_type)
        self.volumes[volume.volume_id] = volume
        self.volume_cache = None
        return volume

    def content_hash(self, slot: int) -> str:
        """The content hash minted by the operand slot at batch position ``slot``."""
        return f"{self.hash_prefix}{slot - self.slot_base + 1:016x}"

    def udf_volume_ids(self) -> list[int]:
        return [v.volume_id for v in self.volumes.values()
                if v.volume_type == _UDF]


# ---------------------------------------------------------------------------
# Per-member streams
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


# ---------------------------------------------------------------------------
# Batch materialization
# ---------------------------------------------------------------------------

#: Uniform lanes of one operand slot.  Every realised operation of an active
#: session owns a slot, and so does every pre-existing file; the event loop
#: reads a slot's lanes by index.  ``_ROLL`` is the update, download-target,
#: directory or short-lived roll (or the deleted-volume pick), ``_PICK`` and
#: ``_PICK2`` select file-table targets, ``_VOLUME`` picks the volume of a
#: created file or directory, and the last two lanes are a new file's
#: duplicate roll and pool/profile pick.  Each slot also owns one standard
#: normal: a created file's size or an update's jitter (an upload is one or
#: the other, never both).
_LANES = 6
_ROLL, _PICK, _PICK2, _VOLUME, _DUPLICATE, _ENTRY = range(_LANES)

#: Skeleton uniforms one batch may plan before the next batch starts.  It
#: bounds the transient lane columns at any shard size; every member's draws
#: are a pure function of its plan, so where batches are cut changes nothing.
_BATCH_DRAWS = 1 << 17

#: Cold-session maintenance polls: the first 1 s in, then every 4-10 h.
_COLD_FIRST_POLL = 1.0
_COLD_MIN_SPACING = 4 * HOUR
_COLD_SPACING_SPREAD = 6 * HOUR
_COLD_GET_DELTA_SHARE = 0.6


def _skeleton_size(spec: SessionSpec) -> int:
    """Uniforms one session's skeleton takes from its member's stream.

    An active session planning ``n`` operations takes ``2n + 1``: its start
    offset, ``n - 1`` gaps, the chain's initial draw, ``n - 1`` transitions
    and the volume-ops flag.  A cold session takes an operation roll and a
    spacing for every poll it could hold.  Auth failures take none.
    """
    if spec.auth_fails:
        return 0
    if spec.active:
        return 2 * spec.n_ops + 1
    if spec.length <= _COLD_FIRST_POLL:
        return 0
    return 2 * (int((spec.length - _COLD_FIRST_POLL) // _COLD_MIN_SPACING) + 1)


def _member_sizes(plan: UserPlan) -> list[int]:
    return [_skeleton_size(spec) for spec in plan.sessions]


def _longest_first(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                list[int]]:
    """The lockstep schedule of sessions holding ``counts`` items each.

    Returns the sessions ordered longest first, each session's offset in
    the concatenation of its items, and for every step ``j`` how many
    sessions (a prefix of the order) hold more than ``j`` items.
    """
    order = np.argsort(-counts, kind="stable")
    offsets = np.cumsum(counts) - counts
    moving = np.searchsorted(-counts[order], -np.arange(counts.max()),
                             side="left")
    return order, offsets, moving.tolist()


def _timelines(first: np.ndarray, values: np.ndarray, at: np.ndarray,
               stride: int, counts: np.ndarray, ends: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Every session's event times, cut at its end.

    Session ``i`` starts at ``first[i]`` and adds ``values[at[i] + stride *
    j]`` for ``j < counts[i] - 1``.  All sessions advance one addition at a
    time together, so each one's times are exactly its own left-to-right
    running sums, whatever shares the batch.  Returns the concatenated
    times before each session's end and how many each session kept.
    """
    order, offsets, moving = _longest_first(counts)
    position = offsets[order]
    source = at[order]
    t = first[order]
    out = np.empty(int(counts.sum()))
    for j, m in enumerate(moving):
        if j:
            t = t[:m] + values[source[:m] + stride * (j - 1)]
        out[position[:m] + j] = t[:m]
    keep = out < np.repeat(ends, counts)
    running = np.concatenate(([0], np.cumsum(keep)))
    return out[keep], running[offsets + counts] - running[offsets]


def _deal(entries: Sequence[list], counts: np.ndarray, field: int,
          values: list) -> None:
    """Hand each session entry its slice of one concatenated column."""
    stop = 0
    for entry, count in zip(entries, counts.tolist()):
        start, stop = stop, stop + count
        entry[field] = values[start:stop]


class _BatchMaterializer:
    """Materializes a batch of user plan members column-at-a-time.

    Each member draws from its own stream in a fixed number of Generator
    calls, sized only by its plan and its own earlier draws: a *skeleton*
    block (:func:`_skeleton_size` per session), then, for a member with
    active sessions, its pre-existing file count (one Poisson draw) and an
    *operand* block of ``_LANES`` uniforms plus one standard normal per
    slot.  Everything elementwise runs once over the batch's concatenated
    draws: Pareto gaps, poll spacings, download biases, chain transitions,
    new-file entries and update jitters.  Each session's timeline scan and
    chain walk, and the operand choices against the live file table, stay
    per session and per event.  So no member's scripts depend on which
    other members share its batch.
    """

    def __init__(self, config: WorkloadConfig,
                 popular_pool: PopularContentPool, diurnal: DiurnalProfile):
        self.config = config
        self._popular_pool = popular_pool
        self._diurnal = diurnal
        self._update_attempt = min(config.update_fraction
                                   * _UPDATE_ATTEMPT_BOOST, 0.95)

    def materialize(self, plans: Sequence[UserPlan],
                    rngs: Sequence[np.random.Generator],
                    sizes: list[list[int]],
                    script_rows: ScriptRows) -> None:
        """Append every member's session scripts to ``script_rows``,
        member by member, each in its plan order.

        ``sizes`` holds each member's :func:`_member_sizes`.
        """
        skeleton = np.concatenate([rng.random(sum(member_sizes))
                                   for rng, member_sizes in zip(rngs, sizes)])
        sessions = self._structure(plans, sizes, skeleton)
        slots = self._draw_operands(plans, rngs, sessions)
        for plan, member_sessions, member_slots in zip(plans, sessions, slots):
            self._scripts(plan, member_sessions, member_slots, script_rows)

    # ------------------------------------------------------------ skeleton
    def _structure(self, plans: Sequence[UserPlan], sizes: list[list[int]],
                   skeleton: np.ndarray) -> list[list]:
        """Per session: ``None`` (auth failure) or ``[times, ops]``."""
        config = self.config
        active: list[tuple[list, int, SessionSpec, User]] = []
        cold: list[tuple[list, int, SessionSpec, int]] = []
        out: list[list] = []
        position = 0
        for plan, member_sizes in zip(plans, sizes):
            member: list = []
            for spec, size in zip(plan.sessions, member_sizes):
                if spec.auth_fails:
                    member.append(None)
                else:
                    entry = [[], []]
                    member.append(entry)
                    if spec.active:
                        active.append((entry, position, spec, plan.user))
                    else:
                        cold.append((entry, position, spec, size // 2))
                position += size
            out.append(member)
        if cold:
            entries, at, specs, polls = zip(*cold)
            at = np.asarray(at)
            times, kept = _timelines(
                np.asarray([spec.start for spec in specs]) + _COLD_FIRST_POLL,
                _COLD_MIN_SPACING + _COLD_SPACING_SPREAD * skeleton, at + 1, 2,
                np.asarray(polls), np.asarray([spec.end for spec in specs]))
            ops = [_COLD_OPS[flag] for flag in (
                skeleton[ranges(at, kept, 2)] < _COLD_GET_DELTA_SHARE).tolist()]
            _deal(entries, kept, 0, times.tolist())
            _deal(entries, kept, 1, ops)
        if active:
            entries, at, specs, users = zip(*active)
            at = np.asarray(at)
            n_ops = np.asarray([spec.n_ops for spec in specs])
            times, kept = _timelines(
                np.asarray([spec.start for spec in specs]) + 0.2
                + 2.8 * skeleton[at],
                BurstGapSampler.gaps(skeleton, config.burst_alpha,
                                     config.burst_theta, config.burst_cap),
                at + 1, 1, n_ops, np.asarray([spec.end for spec in specs]))
            _deal(entries, kept, 0, times.tolist())
            self._walk(entries, users, at, n_ops, kept, times, skeleton)
        return out

    def _walk(self, entries: Sequence[list], users: Sequence[User],
              at: np.ndarray, n_ops: np.ndarray, kept: np.ndarray,
              times: np.ndarray, skeleton: np.ndarray) -> None:
        """Every active session's operation sequence, from batch passes.

        One ``next_matrix`` call per distinct chain resolves every ``(state,
        step)`` pair of the batch's realised transitions.  The walks then
        advance together, longest first: step ``j`` moves every session
        with more than ``j`` operations with one gather.
        """
        walking = np.flatnonzero(kept).tolist()
        if not walking:
            return
        steps = kept[walking] - 1
        u = skeleton[ranges(at[walking] + n_ops[walking] + 1, steps)]
        # Each walking session's transitions follow its first operation.
        bias = self._diurnal.download_bias_array(
            np.delete(times, (np.cumsum(kept) - kept)[walking]))
        flags = (skeleton[at + 2 * n_ops] < 0.3).tolist()
        initial = skeleton[at + n_ops].tolist()
        chains: dict[CompiledChain, int] = {}
        chain_of = []
        state = []
        for i in walking:
            user = users[i]
            chain = compiled_chain(user.user_class,
                                   user.udf_volumes > 0 or flags[i])
            chain_of.append(chains.setdefault(chain, len(chains)))
            state.append(initial_state(initial[i]))
        chain_ids = np.repeat(chain_of, steps)
        following = np.empty((len(CHAIN_OPS), u.size), dtype=np.int8)
        for chain, chain_id in chains.items():
            cols = np.flatnonzero(chain_ids == chain_id)
            following[:, cols] = chain.next_matrix(u[cols], bias[cols])
        counts = steps + 1
        order, offsets, moving = _longest_first(counts)
        # A session's transitions sit one column per operation after its
        # first, so its column offset is its operation offset minus its rank.
        column = (offsets - np.arange(counts.size))[order]
        position = offsets[order]
        state = np.asarray(state, dtype=np.int8)[order]
        ops = np.empty(int(counts.sum()), dtype=np.int8)
        for j, m in enumerate(moving):
            if j:
                state = following[state[:m], column[:m] + j - 1]
            ops[position[:m] + j] = state[:m]
        _deal([entries[i] for i in walking], counts, 1, ops.tolist())

    # ------------------------------------------------------------ operands
    def _draw_operands(self, plans: Sequence[UserPlan],
                       rngs: Sequence[np.random.Generator],
                       sessions: list[list]
                       ) -> list[tuple[int, int, int] | None]:
        """Draw every active member's operand block; resolve the lanes.

        Returns each member's ``(first slot, pre-existing files, slots)``
        (``None`` without active sessions: cold and auth-failing sessions
        never choose an operand).
        """
        layout: list[tuple[int, int, int] | None] = []
        lane_blocks: list[np.ndarray] = []
        normal_blocks: list[np.ndarray] = []
        n_slots = 0
        for plan, rng, member in zip(plans, rngs, sessions):
            realised = [len(entry[0]) for spec, entry in zip(plan.sessions, member)
                        if entry is not None and spec.active]
            if not realised:
                layout.append(None)
                continue
            # Pre-existing files (uploaded before the measurement window),
            # so that download-only users have something to read and RAR
            # dependencies need no preceding in-trace write.
            user = plan.user
            if user.user_class is not UserClass.OCCASIONAL:
                expected = 4.0 * (1.0 + min(user.activity_weight, 20.0))
            else:
                expected = 0.5
            n_files = int(rng.poisson(expected))
            slots = n_files + sum(realised)
            lane_blocks.append(rng.random(slots * _LANES))
            normal_blocks.append(rng.standard_normal(slots))
            layout.append((n_slots, n_files, slots))
            n_slots += slots
        if not lane_blocks:
            return layout
        lanes = np.concatenate(lane_blocks).reshape(-1, _LANES)
        normals = np.concatenate(normal_blocks)
        self._roll, self._pick, self._pick2, self._volume_u = (
            lanes[:, lane].tolist() for lane in (_ROLL, _PICK, _PICK2, _VOLUME))
        entry_pick, entry_size = new_file_entries(
            self._popular_pool, self.config.duplicate_fraction,
            self.config.max_file_bytes, lanes[:, _DUPLICATE], lanes[:, _ENTRY],
            normals)
        self._entry_pick = entry_pick.tolist()
        self._entry_size = entry_size.tolist()
        self._jitter = update_jitter(normals).tolist()
        return layout

    # -------------------------------------------------------------- scripts
    def _scripts(self, plan: UserPlan, sessions: list,
                 slots: tuple[int, int, int] | None,
                 script_rows: ScriptRows) -> None:
        """Append the member's scripts and their event rows to
        ``script_rows``."""
        user_id = plan.user.user_id
        if slots is None:
            root_id = (user_id << _ID_BITS) + 1
        else:
            state = _UserState(plan.user, *slots)
            root_id = state.root_id
            self._add_existing_files(state)
            slot = state.slot_base + state.n_files
        add_script = script_rows.scripts.append
        rows = script_rows.rows
        for spec, entry in zip(plan.sessions, sessions):
            if entry is None:
                # Failed authentications never establish a session; the
                # script is kept (it still hits the auth service) but
                # carries no events.
                add_script((user_id, spec.session_id, spec.start, spec.end,
                            False, True, 0))
                continue
            times, ops = entry
            if not spec.active:
                # Maintenance polls touch nothing but the root volume.
                rows.extend(zip(times, ops, repeat(0), repeat(root_id),
                                repeat(_ROOT), repeat(_FILE), repeat(0),
                                repeat(""), repeat(""), repeat(False)))
                n_events = len(times)
            else:
                n_events = self._active_rows(state, times, ops, slot, rows)
                slot += len(times)
            add_script((user_id, spec.session_id, spec.start, spec.end,
                        False, False, n_events))

    # -------------------------------------------------------- file tables
    @staticmethod
    def _volume_tables(state: _UserState) -> tuple[list[_VolumeState], list[float]]:
        cache = state.volume_cache
        if cache is None:
            volumes = list(state.volumes.values())
            cumulative: list[float] = []
            total = 0.0
            for volume in volumes:
                total += 3.0 if volume.volume_type == _ROOT else 1.0
                cumulative.append(total)
            cache = state.volume_cache = (volumes, cumulative)
        return cache

    def _pick_volume(self, state: _UserState, slot: int) -> _VolumeState:
        """The volume at the slot's volume lane, the root weighted 3:1."""
        volumes, cumulative = state.volume_cache or self._volume_tables(state)
        if len(volumes) == 1:
            return volumes[0]
        x = self._volume_u[slot] * cumulative[-1]
        for volume, bound in zip(volumes, cumulative):
            if x < bound:
                return volume
        return volumes[-1]

    def _new_file(self, state: _UserState, slot: int) -> _FileState:
        """Register the new file the operand slot at ``slot`` describes.

        Leaves the file-table row to the caller.
        """
        volume = self._pick_volume(state, slot)
        pick = self._entry_pick[slot]
        if pick >= 0:
            content_hash, size, extension = self._popular_pool.entries[pick]
        else:
            content_hash = state.content_hash(slot)
            size = self._entry_size[slot]
            extension = PROFILE_EXTENSIONS[-1 - pick]
        file_state = _FileState(state.new_node_id(), volume.volume_id,
                                volume.volume_type, size, content_hash,
                                extension)
        state.files[file_state.node_id] = file_state
        volume.file_ids.add(file_state.node_id)
        return file_state

    def _create_file(self, state: _UserState, created: float,
                     slot: int) -> _FileState:
        file_state = self._new_file(state, slot)
        state.table.add(file_state.node_id, created, file_state.size_bytes)
        return file_state

    def _add_existing_files(self, state: _UserState) -> None:
        """The files uploaded before the measurement window (the first slots)."""
        if not state.n_files:
            return
        created = self.config.start_time - 1.0
        first = state.slot_base
        files = [self._new_file(state, slot)
                 for slot in range(first, first + state.n_files)]
        state.table.add_block([f.node_id for f in files], created,
                              [f.size_bytes for f in files])

    def _drop_file(self, state: _UserState, node_id: int) -> None:
        state.files.pop(node_id, None)
        state.table.remove(node_id)
        state.pending_uploads.discard(node_id)

    # -------------------------------------------------------- operand logic
    def _pick_update_target(self, state: _UserState, now: float,
                            slot: int) -> _FileState | None:
        """Choose the file an update rewrites.

        Updates disproportionately hit larger, recently and frequently
        edited files (documents under revision, tagged media) — the editing
        bursts that chain into the WAW dependencies of Fig. 3a; they also
        account for ~18.5 % of upload bytes while being only ~10 % of
        uploads.
        """
        node_id = state.table.pick_update(now, self._pick[slot])
        return None if node_id is None else state.files[node_id]

    def _pick_download_target(self, state: _UserState, now: float,
                              slot: int) -> _FileState:
        """Choose the file a download reads.

        U1 is backup-flavoured: most uploads are never read back, and the
        downloads that do happen are dominated by repeated reads of popular
        content (the RAR dependencies and the per-file download tail of
        Fig. 3b) and by new content appearing from other devices or shares.
        Only a modest share synchronises just-written files — which is what
        keeps WAW, not RAW, the most common same-file dependency (Fig. 3a).
        """
        roll = self._roll[slot]
        if roll < _DL_SYNC_SHARE:
            node_id = state.table.pick_unsynced(now, self._pick[slot])
            if node_id is not None:
                return state.files[node_id]
        if state.files and roll < _DL_KNOWN_SHARE:
            node_id = state.table.pick_reread(self._pick2[slot])
            if node_id is not None:
                return state.files[node_id]
        # New remote content (another device or a share) appears and is synced.
        return self._create_file(state, now, slot)

    def _materialize(self, state: _UserState, op: int, t: float,
                     slot: int) -> tuple | None:
        """Turn one stateful chain-state index into an event row.

        Dispatches on the small-integer chain state (most frequent branches
        first); every stochastic choice reads a lane of the operation's
        operand ``slot``, while the table/pending-upload/volume bookkeeping —
        the truly state-dependent residue — stays scalar.  The row holds
        the event's :data:`~repro.workload.events.EVENT_FIELDS` values, enum
        fields as their trace codes; operations that resolve to nothing
        (empty table, tombstoned pending upload) give ``None``.
        """
        if op == _OP_DOWNLOAD:
            target = self._pick_download_target(state, t, slot)
            state.table.touch_read(target.node_id, t)
            return (t, _DOWNLOAD, target.node_id, target.volume_id,
                    target.volume_type, _FILE, target.size_bytes,
                    target.content_hash, target.extension, False)

        if op == _OP_UPLOAD:
            update_target = None
            if state.files and self._roll[slot] < self._update_attempt:
                update_target = self._pick_update_target(state, t, slot)
            if update_target is not None \
                    and update_target.node_id not in state.pending_uploads:
                # U1 has no delta updates: the whole file is re-uploaded,
                # as new content of about the same size.
                new_hash = state.content_hash(slot)
                new_size = int(update_target.size_bytes * self._jitter[slot])
                if new_size < 1:
                    new_size = 1
                update_target.content_hash = new_hash
                update_target.size_bytes = new_size
                state.table.touch_write(update_target.node_id, t, new_size)
                return (t, _UPLOAD, update_target.node_id,
                        update_target.volume_id, update_target.volume_type,
                        _FILE, new_size, new_hash,
                        update_target.extension, True)
            if state.pending_uploads:
                node_id = state.pending_uploads.popleft()
                file_state = state.files.get(node_id)
                if file_state is None:
                    return None
                state.table.touch_write(node_id, t)
            else:
                file_state = self._create_file(state, t, slot)
            return (t, _UPLOAD, file_state.node_id,
                    file_state.volume_id, file_state.volume_type,
                    _FILE, file_state.size_bytes,
                    file_state.content_hash, file_state.extension, False)

        if op == _OP_MAKE:
            if self._roll[slot] < 0.30:
                volume = self._pick_volume(state, slot)
                volume.directory_count += 1
                return (t, _MAKE, state.new_node_id(),
                        volume.volume_id, volume.volume_type,
                        _DIRECTORY, 0, "", "", False)
            file_state = self._create_file(state, t, slot)
            state.pending_uploads.append(file_state.node_id)
            return (t, _MAKE, file_state.node_id,
                    file_state.volume_id, file_state.volume_type,
                    _FILE, 0, "", "", False)

        if op == _OP_UNLINK:
            if not state.files:
                return None
            target = None
            if self._roll[slot] < self.config.short_lived_file_fraction:
                node_id = state.table.pick_recent_created(t, 8 * HOUR,
                                                          self._pick[slot])
                if node_id is not None:
                    target = state.files[node_id]
            if target is None:
                target = state.files[state.table.pick_uniform(self._pick2[slot])]
            self._drop_file(state, target.node_id)
            volume = state.volumes.get(target.volume_id)
            if volume is not None:
                volume.file_ids.discard(target.node_id)
            return (t, _UNLINK, target.node_id, target.volume_id,
                    target.volume_type, _FILE, 0, "",
                    target.extension, False)

        if op == _OP_MOVE:
            node_id = state.table.pick_uniform(self._pick[slot])
            if node_id is None:
                return None
            target = state.files[node_id]
            return (t, _MOVE, target.node_id, target.volume_id,
                    target.volume_type, _FILE, 0, "",
                    target.extension, False)

        if op == _OP_CREATE_UDF:
            udf = state.add_volume(_UDF)
            return (t, _CREATE_UDF, 0, udf.volume_id,
                    _UDF, _DIRECTORY, 0, "", "", False)

        # _OP_DELETE_VOLUME, the last chain state.
        udf_ids = state.udf_volume_ids()
        if not udf_ids:
            return None
        pick = int(self._roll[slot] * len(udf_ids))
        volume_id = udf_ids[pick if pick < len(udf_ids) else -1]
        volume = state.volumes.pop(volume_id)
        state.volume_cache = None
        for node_id in volume.file_ids:
            self._drop_file(state, node_id)
        return (t, _DELETE_VOLUME, 0, volume_id, _UDF,
                _DIRECTORY, 0, "", "", False)

    def _active_rows(self, state: _UserState, times: list[float],
                     ops: list[int], slot: int, rows: list) -> int:
        """Append one active session's event rows to ``rows`` and return
        how many; operation ``i`` owns operand slot ``slot + i``."""
        maintenance = [(_CHAIN_CODES[op], 0, state.root_id, _ROOT, _FILE, 0,
                        "", "", False)
                       for op in range(_FIRST_STATEFUL)]
        materialize = self._materialize
        add = rows.append
        before = len(rows)
        for t, op in zip(times, ops):
            if op < _FIRST_STATEFUL:
                # Maintenance operations touch no operand state at all.
                add((t, *maintenance[op]))
            else:
                row = materialize(state, op, t, slot)
                if row is not None:
                    add(row)
            slot += 1
        return len(rows) - before


def _materialize_attack(config: WorkloadConfig, plan: AttackPlan,
                        rng: np.random.Generator | None = None
                        ) -> ScriptTable:
    """Materialize one DDoS episode slice from the attacker's own stream."""
    if rng is None:
        rng = member_rng(config.seed, plan.episode.attacker_user_id)
    return plan.episode.generate_sessions(
        rng, plan.baseline_sessions_per_hour,
        plan.baseline_storage_ops_per_hour,
        session_id_start=plan.session_id_start,
        session_range=plan.sessions_slice)


def _member_user_id(plan: WorkloadPlan, index: int) -> int:
    """The stream-owning user id of one plan member (user or attacker)."""
    n_users = len(plan.users)
    if index < n_users:
        return plan.users[index].user.user_id
    return plan.attacks[index - n_users].episode.attacker_user_id


def _diurnal(config: WorkloadConfig) -> DiurnalProfile:
    return DiurnalProfile(peak_to_trough=config.diurnal_peak_to_trough,
                          weekend_factor=config.weekend_factor)


def materialize_member(plan: WorkloadPlan, index: int,
                       diurnal: DiurnalProfile | None = None,
                       rng_batch: MemberRngBatch | None = None
                       ) -> ScriptTable:
    """Materialize one plan member (user or attack slice) into its script
    table, in plan order."""
    config = plan.config
    n_users = len(plan.users)
    if index < n_users:
        user_plan = plan.users[index]
        script_rows = ScriptRows()
        if user_plan.sessions:
            # A user without sessions has no scripts; its stream is
            # independent, so skipping it draws nothing.
            user_id = user_plan.user.user_id
            rng = (rng_batch.rng(user_id) if rng_batch is not None
                   else member_rng(config.seed, user_id))
            materializer = _BatchMaterializer(config, plan.popular_pool,
                                              diurnal or _diurnal(config))
            materializer.materialize([user_plan], [rng],
                                     [_member_sizes(user_plan)], script_rows)
        return script_rows.build()
    attack_plan = plan.attacks[index - n_users]
    rng = (rng_batch.rng(attack_plan.episode.attacker_user_id)
           if rng_batch is not None else None)
    return _materialize_attack(config, attack_plan, rng=rng)


def materialize_members(plan: WorkloadPlan,
                        members: Sequence[int] | None = None) -> ScriptTable:
    """Materialize plan members (default: all) into one script table in
    canonical ``(start, session_id)`` order (:meth:`ScriptTable.sorted`).

    User members go through :class:`_BatchMaterializer` in batches of at
    most ``_BATCH_DRAWS`` planned skeleton draws, all appending to one
    :class:`ScriptRows`; attack slices build their own tables.
    Session ids are globally unique and allocated by the plan, so the
    canonical order is total: the tables of any member partition merge
    stably into the table of all members.
    """
    config = plan.config
    diurnal = _diurnal(config)
    indices = range(plan.n_members) if members is None else members
    # One vectorised derivation covers every member stream of the batch
    # (duplicate ids — a user appearing in several attack slices — cost one
    # derivation each way, so dict-deduping them is free and harmless).
    member_ids = sorted({_member_user_id(plan, index) for index in indices})
    rng_batch = MemberRngBatch(config.seed, member_ids)
    materializer = _BatchMaterializer(config, plan.popular_pool, diurnal)
    n_users = len(plan.users)
    script_rows = ScriptRows()
    attacks: list[ScriptTable] = []

    def flush() -> None:
        plans = [plan.users[index] for index in batch]
        rngs = [rng_batch.rng(user_plan.user.user_id) for user_plan in plans]
        materializer.materialize(plans, rngs, sizes, script_rows)
        batch.clear()
        sizes.clear()

    batch: list[int] = []
    sizes: list[list[int]] = []
    draws = 0
    for index in indices:
        if index >= n_users:
            attacks.append(materialize_member(plan, index, diurnal=diurnal,
                                              rng_batch=rng_batch))
            continue
        if not plan.users[index].sessions:
            continue
        member_sizes = _member_sizes(plan.users[index])
        if batch and draws + sum(member_sizes) > _BATCH_DRAWS:
            flush()
            draws = 0
        batch.append(index)
        sizes.append(member_sizes)
        draws += sum(member_sizes)
    if batch:
        flush()
    return ScriptTable.concat([script_rows.build(), *attacks]).sorted()


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
        population = self._population
        table = self._session_model.plan_sessions(population)
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
        expected = np.minimum(table.n_ops, 1.0 + table.length / mean_gap)
        # Cold sessions only poll every 4-10 h; weigh them by the expected
        # number of maintenance interactions.
        session_weight = np.where(
            table.auth_fails, 0.25,
            np.where(table.active, 1.0 + expected,
                     1.0 + table.length / (7.0 * HOUR)))
        planned_ops = np.bincount(table.owner, weights=session_weight,
                                  minlength=len(population))
        planned_storage_ops = float(
            expected[table.active & ~table.auth_fails].sum())

        # Session ids run 1..N in (user, start) order.
        session_id = len(table)
        specs = list(map(SessionSpec, range(1, session_id + 1),
                         table.start.tolist(), table.length.tolist(),
                         table.active.tolist(), table.auth_fails.tolist(),
                         table.n_ops.tolist()))
        bounds = np.searchsorted(table.owner, np.arange(len(population) + 1))
        user_plans = [
            UserPlan(user=user, sessions=tuple(specs[lo:hi]), planned_ops=weight)
            for user, lo, hi, weight in zip(population, bounds[:-1].tolist(),
                                            bounds[1:].tolist(),
                                            planned_ops.tolist())
        ]

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
        expected_creations = 0.5 * planned_storage_ops + 8.0 * len(population)
        pool_size = int(0.3 * config.duplicate_fraction * expected_creations)
        pool_size = max(32, min(pool_size, 200_000))
        popular_pool = PopularContentPool.build(
            self._file_model, pool_size,
            zipf_exponent=config.duplicate_zipf_exponent)

        return WorkloadPlan(config=config, users=tuple(user_plans),
                            attacks=tuple(attack_plans),
                            popular_pool=popular_pool)
