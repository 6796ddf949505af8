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
Everything that reads only those draws runs once over the batch's
concatenated columns: Pareto gaps, download biases, chain transitions,
new-file entries, update jitters, volume picks (a member's volume list
changes only with its own volume operations), the pre-existing files and
the maintenance and cold-poll rows.  What reads a member's file table runs
in a :class:`~repro.workload.lockstep.Lockstep`: step ``k`` resolves the ``k``-th stateful operation
of every member still running, one handler per operation kind, against
flat CSR file tables.  Three orders stay per member because the realisation
depends on them: the iteration order of each member's ``unsynced`` set (a
sync download walks it), its pending-upload FIFO, and the file sets of its
UDF volumes (a volume delete removes files in that order, which fixes the
table's row order after it).  Content hashes and extensions travel as
integer keys; the script table names each distinct key once.  All of it
preserves the invariant above: the realised workload remains a pure function
of ``(config, plan member)``, bit identical across any member partition and
any ``--jobs``.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.trace.dataset import (
    NODE_KIND_CODE,
    OPERATION_CODE,
    VOLUME_TYPE_CODE,
    factorise,
)
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
from repro.workload.events import ScriptTable, ranges
from repro.workload.lockstep import (
    A_DELETE_VOLUME,
    A_FETCH,
    A_MAKE_DIRECTORY,
    A_MAKE_FILE,
    A_MOVE,
    A_REREAD,
    A_SYNC,
    A_UNLINK,
    A_UNLINK_RECENT,
    A_UPDATE,
    A_UPLOAD,
    N_ACTIONS,
    NO_STRING,
    Lockstep,
)
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

#: Chain-state indices of the stateful operations.
_OP_MAKE = CHAIN_OP_INDEX[ApiOperation.MAKE]
_OP_UPLOAD = CHAIN_OP_INDEX[ApiOperation.UPLOAD]
_OP_DOWNLOAD = CHAIN_OP_INDEX[ApiOperation.DOWNLOAD]
_OP_UNLINK = CHAIN_OP_INDEX[ApiOperation.UNLINK]
_OP_MOVE = CHAIN_OP_INDEX[ApiOperation.MOVE]
_OP_CREATE_UDF = CHAIN_OP_INDEX[ApiOperation.CREATE_UDF]
_OP_DELETE_VOLUME = CHAIN_OP_INDEX[ApiOperation.DELETE_VOLUME]

#: Trace codes of the event rows' enum fields (see
#: :class:`~repro.workload.events.ScriptTable`).
_CHAIN_CODES = np.asarray([OPERATION_CODE[op] for op in CHAIN_OPS],
                          dtype=np.int16)
_COLD_OPS = (OPERATION_CODE[ApiOperation.QUERY_SET_CAPS],
             OPERATION_CODE[ApiOperation.GET_DELTA])
_ROOT = VOLUME_TYPE_CODE[VolumeType.ROOT]
_UDF = VOLUME_TYPE_CODE[VolumeType.UDF]
_SHARED = VOLUME_TYPE_CODE[VolumeType.SHARED]
_FILE = NODE_KIND_CODE[NodeKind.FILE]
_DIRECTORY = NODE_KIND_CODE[NodeKind.DIRECTORY]

#: The :class:`SessionSpec` fields the batch skeleton reads.
_SPEC_FIELDS = attrgetter("session_id", "start", "length", "active",
                          "auth_fails", "n_ops")


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
#: session owns a slot, and so does every pre-existing file; the lockstep
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

#: Content hashes and extensions travel as integer keys until the script
#: table names each distinct key once.  A content key is a pool index, or
#: ``len(pool) + (user_id << _ID_BITS | local slot + 1)`` for the hash a
#: member's operand slot mints; an extension key indexes the materializer's
#: extension list.  ``NO_STRING`` is the empty string in both.
_ID_MASK = (1 << _ID_BITS) - 1


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


def _volume_picks(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index picked by ``u`` in volume lists of ``counts`` volumes.

    The root (index 0) weighs 3 and every other volume 1, so the running
    weights are the integers ``3, 4, ..., counts + 2``: ``u`` picks the
    first volume whose running weight exceeds ``u * (counts + 2)``.
    """
    index = np.floor(u * (counts + 2.0)).astype(np.int64) - 2
    return np.clip(index, 0, counts - 1)


class _ScriptColumns:
    """Column-at-a-time assembly of the user members' :class:`ScriptTable`.

    Each batch adds its script columns (with each script's event count
    under ``"counts"``) and its event columns, the two string fields as
    integer keys.  :meth:`build` names each distinct key once and numbers
    the categories by first occurrence, the factorised form of the same
    strings.
    """

    __slots__ = ("_pool", "_extensions", "_scripts", "_events")

    def __init__(self, pool: PopularContentPool, extensions: list[str]):
        self._pool = pool
        self._extensions = extensions
        self._scripts: list[dict] = []
        self._events: list[dict] = []

    def add(self, scripts: dict, events: dict) -> None:
        self._scripts.append(scripts)
        self._events.append(events)

    def build(self) -> ScriptTable:
        if not self._scripts:
            return ScriptTable.empty()
        scripts = {name: np.concatenate([s[name] for s in self._scripts])
                   for name in self._scripts[0]}
        events = {name: np.concatenate([e[name] for e in self._events])
                  for name in self._events[0]}
        entries = self._pool.entries
        n_pool = len(entries)

        def content_hash(key: int) -> str:
            if key == NO_STRING:
                return ""
            if key < n_pool:
                return entries[key][0]
            key -= n_pool
            return f"sha1:u{key >> _ID_BITS:x}-{key & _ID_MASK:016x}"

        codes, keys = factorise(events["content_hash"].tolist())
        events["content_hash"] = (codes, [content_hash(k) for k in keys])
        codes, keys = factorise(events["extension"].tolist())
        extensions = self._extensions
        events["extension"] = (codes, ["" if k == NO_STRING else extensions[k]
                                       for k in keys])
        return ScriptTable(scripts, scripts.pop("counts"), events)


class _BatchMaterializer:
    """Materializes a batch of user plan members column-at-a-time.

    Each member draws from its own stream in a fixed number of Generator
    calls, sized only by its plan and its own earlier draws: a *skeleton*
    block (:func:`_skeleton_size` per session), then, for a member with
    active sessions, its pre-existing file count (one Poisson draw) and an
    *operand* block of ``_LANES`` uniforms plus one standard normal per
    slot.  Everything that reads only these draws runs once over the
    batch's concatenated columns: Pareto gaps, poll spacings, download
    biases, chain transitions, new-file entries, update jitters, volume
    picks (a member's volume list changes only with its own volume
    operations, so the list each operation sees is known up front), the
    pre-existing files, and the maintenance and cold-poll rows.

    What reads a member's file table resolves in a
    :class:`~repro.workload.lockstep.Lockstep`.  One
    lockstep step takes the next stateful operation of every member that
    has one and resolves it against flat CSR file tables, one handler call
    per operation kind.  What stays per member, in Python, is what the
    realisation reads in an order no column holds: the iteration order of
    the ``unsynced`` set (a sync download walks it), the pending-upload
    FIFO, and the file sets of UDF volumes (a volume delete removes files
    in their order, which fixes the table's row order after it).  So no
    member's scripts depend on which other members share its batch.
    """

    def __init__(self, config: WorkloadConfig,
                 popular_pool: PopularContentPool, diurnal: DiurnalProfile):
        self.config = config
        self._popular_pool = popular_pool
        self._diurnal = diurnal
        self._update_attempt = min(config.update_fraction
                                   * _UPDATE_ATTEMPT_BOOST, 0.95)
        entries = popular_pool.entries
        extensions = list(dict.fromkeys(
            [*PROFILE_EXTENSIONS, *(extension for _, _, extension in entries)]))
        code = {extension: i for i, extension in enumerate(extensions)}
        code[""] = NO_STRING
        #: Extension keys of the profiles and of the pool's entries.
        self.extensions = extensions
        self._profile_extension = np.asarray(
            [code[extension] for extension in PROFILE_EXTENSIONS])
        self._pool_size = np.asarray([size for _, size, _ in entries],
                                     dtype=np.int64)
        self._pool_extension = np.asarray(
            [code[extension] for _, _, extension in entries], dtype=np.int64)

    def materialize(self, plans: Sequence[UserPlan],
                    rngs: Sequence[np.random.Generator],
                    sizes: list[list[int]], columns: _ScriptColumns) -> None:
        """Add every member's session scripts to ``columns``, member by
        member, each in its plan order.

        ``sizes`` holds each member's :func:`_member_sizes`.
        """
        skeleton = np.concatenate([rng.random(sum(member_sizes))
                                   for rng, member_sizes in zip(rngs, sizes)])
        batch = self._structure(plans, sizes, skeleton)
        events = self._events(plans, rngs, batch)
        keep = events.pop("keep")
        counts = batch["counts"]
        if not keep.all():
            session = np.repeat(np.arange(counts.size), counts)
            counts = np.bincount(session[keep], minlength=counts.size)
            events = {name: column[keep] for name, column in events.items()}
        columns.add({"user_id": batch["user_id"],
                     "session_id": batch["session_id"],
                     "start": batch["start"], "end": batch["end"],
                     "caused_by_attack": np.zeros(counts.size, dtype=bool),
                     "auth_failed": batch["auth_failed"], "counts": counts},
                    events)

    # ------------------------------------------------------------ skeleton
    def _structure(self, plans: Sequence[UserPlan], sizes: list[list[int]],
                   skeleton: np.ndarray) -> dict:
        """Every session and event of the batch, in batch order.

        Per session: ``user_id``, ``session_id``, ``start``, ``end``,
        ``auth_failed`` and ``counts`` (its events).  Per event: ``times``,
        ``codes`` (trace operation codes), ``chain`` (the chain state, -1
        for a cold poll) and ``member`` (batch index).  Per member:
        ``active`` (whether it holds an active session).
        """
        config = self.config
        specs = [spec for plan in plans for spec in plan.sessions]
        session_id, start, length, active, auth_failed, n_ops = (
            np.asarray(column) for column in zip(*map(_SPEC_FIELDS, specs)))
        end = start + length
        per_member = np.fromiter((len(plan.sessions) for plan in plans),
                                 dtype=np.int64, count=len(plans))
        member = np.repeat(np.arange(len(plans)), per_member)
        size = np.fromiter(chain.from_iterable(sizes), dtype=np.int64,
                           count=len(specs))
        at = np.cumsum(size) - size
        counts = np.zeros(len(specs), dtype=np.int64)
        cold = np.flatnonzero(~auth_failed & ~active)
        live = np.flatnonzero(~auth_failed & active)
        if cold.size:
            cold_at = at[cold]
            cold_times, cold_kept = _timelines(
                start[cold] + _COLD_FIRST_POLL,
                _COLD_MIN_SPACING + _COLD_SPACING_SPREAD * skeleton,
                cold_at + 1, 2, size[cold] // 2, end[cold])
            cold_codes = np.where(
                skeleton[ranges(cold_at, cold_kept, 2)] < _COLD_GET_DELTA_SHARE,
                _COLD_OPS[1], _COLD_OPS[0])
            counts[cold] = cold_kept
        if live.size:
            live_at = at[live]
            live_ops = n_ops[live]
            live_times, live_kept = _timelines(
                start[live] + 0.2 + 2.8 * skeleton[live_at],
                BurstGapSampler.gaps(skeleton, config.burst_alpha,
                                     config.burst_theta, config.burst_cap),
                live_at + 1, 1, live_ops, end[live])
            users = [plans[m].user for m in member[live].tolist()]
            live_chain = self._walk(users, live_at, live_ops, live_kept,
                                    live_times, skeleton)
            counts[live] = live_kept
        offsets = np.cumsum(counts) - counts
        n_events = int(counts.sum())
        times = np.empty(n_events)
        codes = np.empty(n_events, dtype=np.int16)
        chain_state = np.full(n_events, -1, dtype=np.int8)
        if cold.size:
            rows = ranges(offsets[cold], cold_kept)
            times[rows] = cold_times
            codes[rows] = cold_codes
        if live.size:
            rows = ranges(offsets[live], live_kept)
            times[rows] = live_times
            chain_state[rows] = live_chain
            codes[rows] = _CHAIN_CODES[live_chain]
        user_id = np.asarray([plan.user.user_id for plan in plans],
                             dtype=np.int64)
        return {"user_id": user_id[member], "session_id": session_id,
                "start": start, "end": end, "auth_failed": auth_failed,
                "counts": counts, "times": times, "codes": codes,
                "chain": chain_state, "member": np.repeat(member, counts),
                "active": np.bincount(member[live], minlength=len(plans)) > 0,
                "users": user_id}

    def _walk(self, users: Sequence[User], at: np.ndarray, n_ops: np.ndarray,
              kept: np.ndarray, times: np.ndarray, skeleton: np.ndarray
              ) -> np.ndarray:
        """Every active session's operation sequence, from batch passes.

        One ``next_matrix`` call per distinct chain resolves every ``(state,
        step)`` pair of the batch's realised transitions.  The walks then
        advance together, longest first: step ``j`` moves every session
        with more than ``j`` operations with one gather.  Returns the chain
        states of all sessions' operations, concatenated.
        """
        walking = np.flatnonzero(kept).tolist()
        if not walking:
            return np.empty(0, dtype=np.int8)
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
        return ops

    # ------------------------------------------------------------ operands
    def _events(self, plans: Sequence[UserPlan],
                rngs: Sequence[np.random.Generator], batch: dict) -> dict:
        """The batch's event columns (string fields as keys), and a ``keep``
        mask that drops the operations that resolve to nothing (an empty
        table, no UDF volume to delete)."""
        times, member = batch["times"], batch["member"]
        id_base = batch["users"] << _ID_BITS
        columns = {
            "times": times, "operation": batch["codes"],
            "node_id": np.zeros(times.size, dtype=np.int64),
            "volume_id": id_base[member] + 1,
            "volume_type": np.full(times.size, _ROOT, dtype=np.int16),
            "node_kind": np.full(times.size, _FILE, dtype=np.int16),
            "size_bytes": np.zeros(times.size, dtype=np.int64),
            "content_hash": np.full(times.size, NO_STRING, dtype=np.int64),
            "extension": np.full(times.size, NO_STRING, dtype=np.int64),
            "is_update": np.zeros(times.size, dtype=bool),
            "keep": np.ones(times.size, dtype=bool)}
        # Maintenance operations and cold polls touch nothing but the root
        # volume, so they keep the defaults above.
        events = np.flatnonzero(batch["chain"] >= 0)
        owner = member[events]
        slots = self._draw_operands(
            plans, rngs, batch["active"],
            np.bincount(owner, minlength=len(plans)), batch["users"])
        if not events.size:
            return columns
        # Operation ``i`` of a member's active sessions owns the slot after
        # its pre-existing files' and its ``i`` predecessors'.
        slot = (slots["base"][owner] + slots["files"][owner]
                + np.arange(events.size) - np.searchsorted(owner, owner))
        ops = batch["chain"][events]
        roll = slots["lanes"][slot, _ROLL]
        volume, volume_type, changed = self._volumes(
            plans, slots, owner, slot, ops, roll, id_base)
        deleted = np.full(events.size, -1, dtype=np.int64)
        for i, volume_id in changed:
            position = events[i]
            columns["volume_type"][position] = _UDF
            columns["node_kind"][position] = _DIRECTORY
            if volume_id < 0:
                columns["keep"][position] = False
                continue
            columns["volume_id"][position] = volume_id
            if ops[i] == _OP_DELETE_VOLUME:
                deleted[i] = volume_id
        download, upload = ops == _OP_DOWNLOAD, ops == _OP_UPLOAD
        make, unlink = ops == _OP_MAKE, ops == _OP_UNLINK
        action = np.select(
            [download & (roll < _DL_SYNC_SHARE),
             download & (roll < _DL_KNOWN_SHARE), download,
             upload & (roll < self._update_attempt), upload,
             make & (roll < 0.30), make,
             unlink & (roll < self.config.short_lived_file_fraction), unlink,
             ops == _OP_MOVE, deleted >= 0],
            [A_SYNC, A_REREAD, A_FETCH, A_UPDATE, A_UPLOAD,
             A_MAKE_DIRECTORY, A_MAKE_FILE, A_UNLINK_RECENT, A_UNLINK,
             A_MOVE, A_DELETE_VOLUME], -1)
        index = np.flatnonzero(action >= 0)
        if not index.size:
            return columns
        tables = self._tables(slots, owner, id_base, volume, volume_type,
                              deleted, action, times.size)
        # Step k holds the k-th operation of every member with more than k;
        # within a step, one group per action.
        owners = owner[index]
        key = ((np.arange(index.size) - np.searchsorted(owners, owners))
               * N_ACTIONS + action[index])
        order = np.argsort(key, kind="stable")
        index, key = index[order], key[order]
        bounds = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        lo = [0, *bounds]
        groups = list(zip((key[lo] % N_ACTIONS).tolist(), lo,
                          [*bounds, index.size]))
        at = slot[index]
        members = owner[index]
        lanes = slots["lanes"][at]
        tables.load(members, events[index], times[events[index]], at,
                      lanes[:, _PICK], lanes[:, _PICK2], slots["size"][at],
                      slots["content"][at], slots["mint"][at],
                      slots["jitter"][at],
                      np.where(np.isin(members, list(tables.udf_files))
                               & (volume_type[at] == _UDF), volume[at], -1),
                      deleted[index])
        tables.run(groups)
        keep = columns["keep"]
        keep &= np.frombuffer(tables.keep, dtype=bool)
        # A node's volume and extension come from the slot that created it.
        action = action[index]
        position = events[index]
        live = keep[position] & (action != A_DELETE_VOLUME)
        position, action = position[live], action[live]
        owners = member[position]
        local = np.frombuffer(tables.out_local, dtype=np.int64)[position]
        columns["node_id"][position] = id_base[owners] + local
        made_by = np.frombuffer(tables.node_slot, dtype=np.int64)[
            np.asarray(tables.nbase)[owners] + local]
        columns["volume_id"][position] = volume[made_by]
        columns["volume_type"][position] = volume_type[made_by]
        columns["node_kind"][position[action == A_MAKE_DIRECTORY]] = _DIRECTORY
        transfer = (action != A_MAKE_DIRECTORY) & (action != A_MAKE_FILE)
        columns["extension"][position[transfer]] = slots["extension"][
            made_by[transfer]]
        columns["size_bytes"] = np.frombuffer(tables.out_size,
                                              dtype=np.int64)
        columns["content_hash"] = np.frombuffer(tables.out_content,
                                                dtype=np.int64)
        columns["is_update"] = np.frombuffer(tables.update, dtype=bool)
        return columns

    def _draw_operands(self, plans: Sequence[UserPlan],
                       rngs: Sequence[np.random.Generator],
                       active: np.ndarray, n_events: np.ndarray,
                       users: np.ndarray) -> dict:
        """Draw every active member's operand block; resolve its lanes.

        Cold and auth-failing sessions never choose an operand, so only a
        member with an active session draws: its pre-existing file count,
        then ``_LANES`` uniforms and one normal per slot.  Returns per
        member its first slot (``base``), pre-existing files (``files``)
        and slots (``slots``); per slot the ``lanes``, and the ``size``,
        ``content`` and ``extension`` keys of the file it would create, the
        content key it mints (``mint``) and its update ``jitter``.
        """
        files = np.zeros(len(plans), dtype=np.int64)
        slots = np.zeros(len(plans), dtype=np.int64)
        lane_blocks: list[np.ndarray] = []
        normal_blocks: list[np.ndarray] = []
        for m in np.flatnonzero(active).tolist():
            # Pre-existing files (uploaded before the measurement window),
            # so that download-only users have something to read and RAR
            # dependencies need no preceding in-trace write.
            user, rng = plans[m].user, rngs[m]
            if user.user_class is not UserClass.OCCASIONAL:
                expected = 4.0 * (1.0 + min(user.activity_weight, 20.0))
            else:
                expected = 0.5
            files[m] = int(rng.poisson(expected))
            slots[m] = files[m] + n_events[m]
            lane_blocks.append(rng.random(int(slots[m]) * _LANES))
            normal_blocks.append(rng.standard_normal(int(slots[m])))
        base = np.cumsum(slots) - slots
        out = {"base": base, "files": files, "slots": slots}
        if not lane_blocks:
            return out
        lanes = np.concatenate(lane_blocks).reshape(-1, _LANES)
        normals = np.concatenate(normal_blocks)
        pick, size = new_file_entries(
            self._popular_pool, self.config.duplicate_fraction,
            self.config.max_file_bytes, lanes[:, _DUPLICATE], lanes[:, _ENTRY],
            normals)
        duplicate = pick >= 0
        entry = np.where(duplicate, pick, 0)
        owner = np.repeat(np.arange(len(plans)), slots)
        # A minted hash is named after the member and the slot that mints it.
        mint = len(self._pool_size) + (
            (users[owner] << _ID_BITS)
            | (np.arange(owner.size) - base[owner] + 1))
        out.update(
            lanes=lanes, mint=mint, jitter=update_jitter(normals),
            content=np.where(duplicate, pick, mint),
            size=np.where(duplicate, self._pool_size[entry], size),
            extension=np.where(duplicate, self._pool_extension[entry],
                               self._profile_extension[
                                   np.where(duplicate, 0, -1 - pick)]))
        return out

    def _volumes(self, plans: Sequence[UserPlan], slots: dict,
                 owner: np.ndarray, slot: np.ndarray, ops: np.ndarray,
                 roll: np.ndarray, id_base: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Every slot's volume pick, and the volume of each volume operation.

        A member's volume list changes only with its own ``CreateUDF`` and
        ``DeleteVolume`` operations, never with its files, so the list each
        operation sees is known before the steps.  Returns per slot the
        picked volume's id and type, and ``(operation, volume id)`` for the
        volume operations (``-1``: no UDF volume to delete).
        """
        udf = np.asarray([plan.user.udf_volumes for plan in plans],
                         dtype=np.int64)
        shared = np.asarray([plan.user.shared_volumes for plan in plans],
                            dtype=np.int64)
        slot_owner = np.repeat(np.arange(len(plans)), slots["slots"])
        u = slots["lanes"][:, _VOLUME]
        index = _volume_picks(u, (1 + udf + shared)[slot_owner])
        volume = id_base[slot_owner] + 1 + index
        volume_type = np.where(index == 0, _ROOT, np.where(
            index <= udf[slot_owner], _UDF, _SHARED)).astype(np.int16)
        changed: list[tuple[int, int]] = []
        volume_ops = np.flatnonzero((ops == _OP_CREATE_UDF)
                                    | (ops == _OP_DELETE_VOLUME))
        if not volume_ops.size:
            return volume, volume_type, changed
        stops = np.searchsorted(owner, owner[volume_ops], side="right")
        volumes: list[list[int]] = []
        member = -1
        for i, stop in zip(volume_ops.tolist(), stops.tolist()):
            if owner[i] != member:
                member = int(owner[i])
                base = int(id_base[member])
                volumes = ([[base + 1, _ROOT]]
                           + [[base + 1 + j, _UDF]
                              for j in range(1, udf[member] + 1)]
                           + [[base + 1 + udf[member] + j, _SHARED]
                              for j in range(1, shared[member] + 1)])
                created = len(volumes)
            if ops[i] == _OP_CREATE_UDF:
                created += 1
                volumes.append([base + created, _UDF])
                changed.append((i, base + created))
            else:
                udfs = [v for v in volumes if v[1] == _UDF]
                if not udfs:
                    changed.append((i, -1))
                    continue
                pick = int(roll[i] * len(udfs))
                gone = udfs[pick if pick < len(udfs) else -1]
                volumes.remove(gone)
                changed.append((i, gone[0]))
            # The member's later operations pick from the new list.
            later = slot[i + 1:stop]
            ids, types = np.asarray(volumes, dtype=np.int64).T
            index = _volume_picks(u[later], len(volumes))
            volume[later] = ids[index]
            volume_type[later] = types[index]
        return volume, volume_type, changed

    def _tables(self, slots: dict, owner: np.ndarray, id_base: np.ndarray,
                volume: np.ndarray, volume_type: np.ndarray,
                deleted: np.ndarray, action: np.ndarray,
                n_events: int) -> Lockstep:
        """The batch's file tables, holding the pre-existing files."""
        n_members = len(id_base)
        files = slots["files"]
        members = np.repeat(np.arange(n_members), files)
        local = np.arange(members.size) - np.repeat(np.cumsum(files) - files,
                                                    files) + 1
        made_by = np.repeat(slots["base"], files) + local - 1
        tables = Lockstep(
            slots["slots"], files, id_base,
            np.bincount(owner[action == A_MAKE_FILE], minlength=n_members),
            n_events, (self.config.start_time - 1.0, made_by,
                       slots["size"][made_by], slots["content"][made_by]),
            volume)
        # Only a member that deletes a volume needs its UDF file sets.
        for member in sorted(set(owner[deleted >= 0].tolist())):
            files_of = tables.udf_files[member] = {}
            mine = members == member
            for node, made in zip((id_base[member] + local[mine]).tolist(),
                                  made_by[mine].tolist()):
                if volume_type[made] == _UDF:
                    files_of.setdefault(int(volume[made]), set()).add(node)
        return tables


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
        materializer = _BatchMaterializer(config, plan.popular_pool,
                                          diurnal or _diurnal(config))
        columns = _ScriptColumns(plan.popular_pool, materializer.extensions)
        if user_plan.sessions:
            # A user without sessions has no scripts; its stream is
            # independent, so skipping it draws nothing.
            user_id = user_plan.user.user_id
            rng = (rng_batch.rng(user_id) if rng_batch is not None
                   else member_rng(config.seed, user_id))
            materializer.materialize([user_plan], [rng],
                                     [_member_sizes(user_plan)], columns)
        return columns.build()
    attack_plan = plan.attacks[index - n_users]
    rng = (rng_batch.rng(attack_plan.episode.attacker_user_id)
           if rng_batch is not None else None)
    return _materialize_attack(config, attack_plan, rng=rng)


def materialize_members(plan: WorkloadPlan,
                        members: Sequence[int] | None = None) -> ScriptTable:
    """Materialize plan members (default: all) into one script table in
    canonical ``(start, session_id)`` order (:meth:`ScriptTable.sorted`).

    User members go through :class:`_BatchMaterializer` in batches of at
    most ``_BATCH_DRAWS`` planned skeleton draws, all adding to one
    :class:`_ScriptColumns`; attack slices build their own tables.
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
    columns = _ScriptColumns(plan.popular_pool, materializer.extensions)
    attacks: list[ScriptTable] = []

    def flush() -> None:
        plans = [plan.users[index] for index in batch]
        rngs = [rng_batch.rng(user_plan.user.user_id) for user_plan in plans]
        materializer.materialize(plans, rngs, sizes, columns)
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
    return ScriptTable.concat([columns.build(), *attacks]).sorted()


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
