"""DDoS / abuse episodes (Section 5.4).

The paper detected three DDoS attacks during the measurement month (Jan 15,
Jan 16, Feb 6).  The attacks shared a single user id and its credentials
across thousands of desktop clients to distribute illegal content through the
U1 infrastructure, multiplying the number of session and authentication
requests per hour by 5-15x and the API storage activity by up to 245x, until
Canonical engineers manually deleted the fraudulent account (activity decays
within about an hour of the response).

:class:`AttackEpisode` generates the corresponding burst of session,
authentication and storage events attributed to a dedicated attacker user id,
as a :class:`~repro.workload.events.ScriptTable` built with array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.dataset import NODE_KIND_CODE, OPERATION_CODE, VOLUME_TYPE_CODE
from repro.trace.records import ApiOperation, NodeKind, VolumeType
from repro.util.units import HOUR
from repro.workload.config import AttackConfig, WorkloadConfig
from repro.workload.events import ScriptTable, ranges

__all__ = ["AttackEpisode", "build_attack_episodes"]

_UPLOAD = OPERATION_CODE[ApiOperation.UPLOAD]
_DOWNLOAD = OPERATION_CODE[ApiOperation.DOWNLOAD]
_SHARED = VOLUME_TYPE_CODE[VolumeType.SHARED]
_FILE = NODE_KIND_CODE[NodeKind.FILE]


@dataclass
class AttackEpisode:
    """One concrete DDoS episode bound to an attacker user id."""

    config: AttackConfig
    attacker_user_id: int
    shared_node_id: int
    shared_volume_id: int
    content_hash: str
    start: float
    end: float
    #: Memoised whole-episode draw arrays (see ``generate_sessions``): a
    #: pure function of the spawned attacker stream and the baseline rates,
    #: so every session-range slice reuses them within a process.
    _draws_key: tuple | None = field(default=None, repr=False, compare=False)
    _draws: tuple | None = field(default=None, repr=False, compare=False)

    def planned_size(self, baseline_sessions_per_hour: float,
                     baseline_storage_ops_per_hour: float,
                     max_sessions: int = 5_000,
                     max_storage_ops: int = 30_000) -> tuple[int, int]:
        """``(n_sessions, n_storage_ops)`` this episode will generate.

        Deterministic (no RNG draws), so the global planning pass can
        allocate session-id ranges and shard-assignment weights *before*
        the episode is materialized inside a replay worker.
        ``generate_sessions`` uses the same arithmetic, which is what keeps
        the two in lockstep.
        """
        duration_hours = (self.end - self.start) / HOUR
        n_sessions = int(baseline_sessions_per_hour
                         * self.config.session_amplification * duration_hours)
        n_storage_ops = int(baseline_storage_ops_per_hour
                            * self.config.storage_amplification * duration_hours)
        n_sessions = min(max(n_sessions, 10), max_sessions)
        n_storage_ops = min(max(n_storage_ops, n_sessions), max_storage_ops)
        return n_sessions, n_storage_ops

    def generate_sessions(self, rng: np.random.Generator,
                          baseline_sessions_per_hour: float,
                          baseline_storage_ops_per_hour: float,
                          session_id_start: int,
                          max_sessions: int = 5_000,
                          max_storage_ops: int = 30_000,
                          session_range: tuple[int, int] | None = None
                          ) -> ScriptTable:
        """The attack sessions, as one script table.

        ``baseline_sessions_per_hour`` and ``baseline_storage_ops_per_hour``
        are the legitimate per-hour rates; the attack multiplies them by the
        configured amplification factors for its duration.  Every generated
        session authenticates (hammering the authentication service) and most
        of them download the single shared file (leeching), with a few
        uploads re-seeding content.  ``max_sessions`` / ``max_storage_ops``
        bound the absolute size of an episode so that laptop-scale runs stay
        tractable while the relative spike remains visible.

        ``session_range=(lo, hi)`` keeps only sessions ``lo <= i < hi`` of
        the episode.  The whole-episode vectorised draws happen on the
        first call and are memoised on the episode object (they are a pure
        function of the spawned attacker stream and the baselines, so every
        slice of the episode — typically materialized back to back inside
        one replay worker — reuses the same arrays instead of re-drawing
        and re-sorting them), while the slice's columns are gathered from
        them with array operations.  A sharded replay can therefore split
        one botnet flood across workers: the attack's thousands of sessions
        are *concurrent* independent clients sharing one account, not a
        sequential per-user activity stream.
        """
        # The memo key includes the identity of the caller's stream (its
        # SeedSequence entropy/spawn key): a differently-seeded rng must
        # never be served another stream's cached draws.  Streams without a
        # seed sequence (hand-built bit generators) skip the cache.
        seed_seq = getattr(rng.bit_generator, "seed_seq", None)
        if seed_seq is not None:
            rng_key = (getattr(seed_seq, "entropy", None),
                       tuple(getattr(seed_seq, "spawn_key", ()) or ()))
        else:
            rng_key = object()  # unique: never matches a cached key
        cache_key = (rng_key, baseline_sessions_per_hour,
                     baseline_storage_ops_per_hour,
                     max_sessions, max_storage_ops)
        cached = self._draws if self._draws_key == cache_key else None
        if cached is None:
            n_sessions, n_storage_ops = self.planned_size(
                baseline_sessions_per_hour, baseline_storage_ops_per_hour,
                max_sessions=max_sessions, max_storage_ops=max_storage_ops)
            ops_per_session = max(1, n_storage_ops // n_sessions)
            starts = np.sort(rng.uniform(self.start, self.end, size=n_sessions))
            # Vectorised draws: session lengths, per-session op counts, and
            # the inter-op gaps / upload rolls for all sessions at once.
            # The distributions are identical to the historical per-event
            # scalar draws; only the RNG stream consumption order changes.
            lengths = np.minimum(rng.exponential(300.0, size=n_sessions) + 1.0,
                                 self.end - starts)
            op_counts = np.maximum(rng.poisson(ops_per_session,
                                               size=n_sessions), 1)
            total_ops = int(op_counts.sum())
            gaps = rng.exponential(5.0, size=total_ops)
            uploads = rng.random(total_ops) >= 0.95
            offsets = np.concatenate(([0], np.cumsum(op_counts)))
            # Per-session timelines and end-of-session truncation, computed
            # as arrays for the whole episode: a segmented cumulative sum of
            # the gap block, one comparison against the repeated session
            # ends, and — times being increasing within a session — a
            # per-session valid-prefix count instead of a per-event break.
            seg_first = offsets[:-1]
            cum = np.cumsum(gaps)
            base = cum[seg_first] - gaps[seg_first]
            times = np.repeat(starts, op_counts) + cum \
                - np.repeat(base, op_counts)
            session_ends = starts + lengths
            valid = times < np.repeat(session_ends, op_counts)
            n_valid = np.add.reduceat(valid, seg_first)
            cached = (n_sessions, starts, session_ends, seg_first, n_valid,
                      times, uploads)
            self._draws_key = cache_key
            self._draws = cached
        (n_sessions, starts, session_ends, seg_first, n_valid,
         times, uploads) = cached
        lo, hi = session_range if session_range is not None else (0, n_sessions)
        hi = min(hi, n_sessions)
        lo = min(lo, hi)
        # Session i keeps the valid prefix of its gap block.
        counts = n_valid[lo:hi]
        rows = ranges(seg_first[lo:hi], counts)
        n = hi - lo
        m = len(rows)
        # The attack is content distribution: overwhelmingly reads of the
        # same shared file, with occasional re-uploads.  Only the event
        # time, operation and upload flag vary.
        is_update = uploads[rows]
        return ScriptTable(
            {"user_id": np.full(n, self.attacker_user_id, dtype=np.int64),
             "session_id": np.arange(session_id_start + lo + 1,
                                     session_id_start + hi + 1,
                                     dtype=np.int64),
             "start": starts[lo:hi],
             "end": session_ends[lo:hi],
             "caused_by_attack": np.ones(n, dtype=np.bool_),
             "auth_failed": np.zeros(n, dtype=np.bool_)},
            counts,
            {"times": times[rows],
             "operation": np.where(is_update, _UPLOAD, _DOWNLOAD).astype(
                 np.int16),
             "node_id": np.full(m, self.shared_node_id, dtype=np.int64),
             "volume_id": np.full(m, self.shared_volume_id, dtype=np.int64),
             "volume_type": np.full(m, _SHARED, dtype=np.int16),
             "node_kind": np.full(m, _FILE, dtype=np.int16),
             "size_bytes": np.full(m, self.config.shared_file_size,
                                   dtype=np.int64),
             "content_hash": (np.zeros(m, dtype=np.int32),
                              [self.content_hash]),
             "extension": (np.zeros(m, dtype=np.int32), ["avi"]),
             "is_update": is_update})


def build_attack_episodes(config: WorkloadConfig, first_attacker_id: int,
                          first_node_id: int, first_volume_id: int) -> list[AttackEpisode]:
    """Materialise the configured attack episodes.

    Attacker ids / node ids / volume ids are allocated after the legitimate
    population so that they never collide with normal users.
    """
    episodes = []
    for index, attack in enumerate(config.attacks):
        start = attack.start_time(config.start_time)
        end = min(attack.end_time(config.start_time), config.end_time)
        if start >= config.end_time:
            continue
        episodes.append(AttackEpisode(
            config=attack,
            attacker_user_id=first_attacker_id + index,
            shared_node_id=first_node_id + index,
            shared_volume_id=first_volume_id + index,
            content_hash=f"sha1:attack{index:08x}",
            start=start,
            end=end,
        ))
    return episodes
