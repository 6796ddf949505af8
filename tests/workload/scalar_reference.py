"""The scalar per-event materializer, kept as the lockstep's test oracle.

This is the operand resolution :func:`repro.workload.generator.
materialize_members` used before it advanced a batch's members in lockstep:
one ``_UserState`` per member (a ``_FileState`` object per file, a
``_FileTable`` of NumPy columns with a plain-Python scan below
``_SMALL_TABLE`` files) and one Python dispatch per event.  It draws the
same per-member streams and realises the same workload, so
:func:`reference_members` must return the very table the lockstep builds.

One deliberate difference from the historical code: every weighted pick
takes its total from the running sum its search walks (``_pick_small``
once used the builtin ``sum()``, which Python 3.12 evaluates with
compensated summation, so a pick could move by an ulp of the total).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from repro.trace.dataset import OPERATION_CODE
from repro.trace.records import ApiOperation
from repro.util.units import HOUR
from repro.workload import generator
from repro.workload.events import ScriptRows, ScriptTable, ranges
from repro.workload.filemodel import (
    PROFILE_EXTENSIONS,
    PopularContentPool,
    new_file_entries,
    update_jitter,
)
from repro.workload.generator import (
    _CHAIN_CODES,
    _COLD_FIRST_POLL,
    _COLD_GET_DELTA_SHARE,
    _COLD_MIN_SPACING,
    _COLD_OPS,
    _COLD_SPACING_SPREAD,
    _DIRECTORY,
    _DL_KNOWN_SHARE,
    _DL_SYNC_SHARE,
    _DUPLICATE,
    _ENTRY,
    _FILE,
    _ID_BITS,
    _LANES,
    _OP_CREATE_UDF,
    _OP_DOWNLOAD,
    _OP_MAKE,
    _OP_MOVE,
    _OP_UNLINK,
    _OP_UPLOAD,
    _PICK,
    _PICK2,
    _ROLL,
    _ROOT,
    _SHARED,
    _UDF,
    _UPDATE_ATTEMPT_BOOST,
    _VOLUME,
    MemberRngBatch,
    _diurnal,
    _longest_first,
    _materialize_attack,
    _member_sizes,
    _member_user_id,
    _timelines,
)
from repro.workload.diurnal import DiurnalProfile
from repro.workload.lockstep import (
    UPDATE_BURST_BONUS as _UPDATE_BURST_BONUS,
    UPDATE_BURST_WINDOW as _UPDATE_BURST_WINDOW,
)
from repro.workload.opmodel import (
    CHAIN_OP_INDEX,
    CHAIN_OPS,
    BurstGapSampler,
    CompiledChain,
    compiled_chain,
    initial_state,
)
from repro.workload.plan import SessionSpec, UserPlan, WorkloadPlan
from repro.workload.population import User, UserClass
from repro.workload.config import WorkloadConfig

__all__ = ["reference_members"]

#: The maintenance chain states come first (see ``CHAIN_OPS``).
_FIRST_STATEFUL = CHAIN_OP_INDEX[ApiOperation.MAKE]
_MAKE = OPERATION_CODE[ApiOperation.MAKE]
_UPLOAD = OPERATION_CODE[ApiOperation.UPLOAD]
_DOWNLOAD = OPERATION_CODE[ApiOperation.DOWNLOAD]
_UNLINK = OPERATION_CODE[ApiOperation.UNLINK]
_MOVE = OPERATION_CODE[ApiOperation.MOVE]
_CREATE_UDF = OPERATION_CODE[ApiOperation.CREATE_UDF]
_DELETE_VOLUME = OPERATION_CODE[ApiOperation.DELETE_VOLUME]

#: Live-file counts up to which the weighted choices scan in plain Python
#: (the unsynced pick doubles it); above it they run on the NumPy columns.
_SMALL_TABLE = 48


def _update_base_weight(size_bytes: float) -> float:
    """Size-derived update-pick weight: ``0.4 + min(size / 1 MB, 1.5)``."""
    boost = size_bytes / (1024 * 1024)
    return 0.4 + (boost if boost < 1.5 else 1.5)


def _deal(entries: Sequence[list], counts: np.ndarray, field: int,
          values: list) -> None:
    """Hand each session entry its slice of one concatenated column."""
    stop = 0
    for entry, count in zip(entries, counts.tolist()):
        start, stop = stop, stop + count
        entry[field] = values[start:stop]


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
        cumulative = list(accumulate(weights))
        x = u * cumulative[-1]
        index = 0
        for index, acc in enumerate(cumulative):
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
            cumulative = list(accumulate(weights))
            x = u * cumulative[-1]
            index = 0
            for index, acc in enumerate(cumulative):
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
# Batch materialization, one event at a time
# ---------------------------------------------------------------------------

class ReferenceMaterializer:
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


def reference_members(plan: WorkloadPlan,
                      members: Sequence[int] | None = None) -> ScriptTable:
    """:func:`~repro.workload.generator.materialize_members` on the scalar
    path: the same batches (``generator._BATCH_DRAWS`` is read at call
    time, so patching it cuts both), the same streams, one event at a time."""
    config = plan.config
    diurnal = _diurnal(config)
    indices = range(plan.n_members) if members is None else members
    member_ids = sorted({_member_user_id(plan, index) for index in indices})
    rng_batch = MemberRngBatch(config.seed, member_ids)
    materializer = ReferenceMaterializer(config, plan.popular_pool, diurnal)
    n_users = len(plan.users)
    script_rows = ScriptRows()
    attacks: list[ScriptTable] = []
    batch: list[int] = []
    sizes: list[list[int]] = []

    def flush() -> None:
        plans = [plan.users[index] for index in batch]
        rngs = [rng_batch.rng(user_plan.user.user_id) for user_plan in plans]
        materializer.materialize(plans, rngs, sizes, script_rows)
        batch.clear()
        sizes.clear()

    draws = 0
    for index in indices:
        if index >= n_users:
            attack_plan = plan.attacks[index - n_users]
            attacks.append(_materialize_attack(
                config, attack_plan,
                rng=rng_batch.rng(attack_plan.episode.attacker_user_id)))
            continue
        if not plan.users[index].sessions:
            continue
        member_sizes = _member_sizes(plan.users[index])
        if batch and draws + sum(member_sizes) > generator._BATCH_DRAWS:
            flush()
            draws = 0
        batch.append(index)
        sizes.append(member_sizes)
        draws += sum(member_sizes)
    if batch:
        flush()
    return ScriptTable.concat([script_rows.build(), *attacks]).sorted()
