"""The workload *plan*: output of the generator's cheap global pass.

PR 3 splits :class:`~repro.workload.generator.SyntheticTraceGenerator` into
two passes:

* a global **planning pass** (:meth:`SyntheticTraceGenerator.plan`) that
  draws everything needing cross-user totals from the one seeded root
  stream — the session plans of the whole population (start/length/active/
  auth outcome and the planned operation count of every active session,
  drawn as arrays over all users in a fixed number of Generator calls),
  global rate normalisation for the DDoS episodes, session-id allocation
  and the shared popular-content pool that keeps cross-user dedup alive;
* a per-user **materialization pass** (:mod:`repro.workload.generator`)
  that turns one user's plan into the rows of a replay shard's
  :class:`~repro.workload.events.ScriptTable`, drawing only from that
  user's spawned RNG stream.

Because materialization is a pure function of ``(config, plan entry)``, it
can run *inside* the sharded replay workers — fusing generation into the
replay phase — while producing a workload bit-identical to running the
generator unsharded, for any shard count and any worker count.

The plan also carries the per-member weights (planned operation counts)
that the replay engine's deterministic longest-processing-time shard
assignment is keyed on.  The weights use the truncated-Pareto expected gap
(:meth:`~repro.workload.opmodel.BurstGapSampler.mean_truncated_gap`) to
convert drawn operation counts into expected *realised* counts — the same
truncation the vectorised materializer applies when it cuts a session's
pre-drawn timeline at the session end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.workload.attacks import AttackEpisode
from repro.workload.config import WorkloadConfig
from repro.workload.filemodel import PopularContentPool
from repro.workload.population import User

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.events import ScriptTable

__all__ = ["SessionSpec", "UserPlan", "AttackPlan", "WorkloadPlan"]


@dataclass(frozen=True)
class SessionSpec:
    """One planned session with its globally allocated id.

    ``n_ops`` is the planned operation count of an active session (0 for
    cold and auth-failing sessions); it is drawn during planning because
    both the shard-assignment weights and the attack-rate normalisation
    need per-user operation totals before any session is materialized.
    """

    session_id: int
    start: float
    length: float
    active: bool
    auth_fails: bool
    n_ops: int

    @property
    def end(self) -> float:
        """End timestamp of the session."""
        return self.start + self.length


@dataclass(frozen=True)
class UserPlan:
    """All planned sessions of one user, plus the LPT weight."""

    user: User
    sessions: tuple[SessionSpec, ...]
    #: Planned workload weight (operation count plus per-session overhead);
    #: the deterministic longest-processing-time shard assignment keys on
    #: this, so the shard layout depends only on the plan — never on the
    #: worker count.
    planned_ops: float


@dataclass(frozen=True)
class AttackPlan:
    """One *slice* of a DDoS episode, with its plan-time size and ids.

    A botnet flood is thousands of concurrent, mutually independent client
    sessions sharing one stolen account — not a sequential per-user
    activity stream — so the planner cuts each episode into session-range
    slices that are independent plan members.  The LPT shard assignment can
    then spread one flood across shards instead of letting it pin the
    critical path (the reason ``user_id``-keyed assignment bounded
    ``--jobs`` scaling).  Every slice rebuilds the episode's cheap
    whole-episode vectorised draws from the attacker's spawned stream and
    materializes only its ``sessions_slice`` range, so slicing changes
    nothing about the realised episode.
    """

    episode: AttackEpisode
    baseline_sessions_per_hour: float
    baseline_storage_ops_per_hour: float
    #: Last session id allocated *before* the episode (the episode's
    #: sessions occupy ``session_id_start + 1 .. session_id_start +
    #: episode n_sessions``, matching ``AttackEpisode.generate_sessions``).
    session_id_start: int
    #: This slice's ``[lo, hi)`` session-index range within the episode.
    sessions_slice: tuple[int, int]
    #: Planned storage operations of this slice (prorated).
    n_storage_ops: int
    planned_ops: float

    @property
    def user_id(self) -> int:
        """The attacker's dedicated user id."""
        return self.episode.attacker_user_id

    @property
    def n_sessions(self) -> int:
        """Number of sessions in this slice."""
        return self.sessions_slice[1] - self.sessions_slice[0]


@dataclass(frozen=True)
class WorkloadPlan:
    """The full global plan: users, attacks and the shared content pool.

    A plan *member* is one independently materializable unit — a legitimate
    user or an attack episode — indexed ``0 .. n_members - 1`` (users first,
    episodes after).  Members are the granularity of the fused pipeline's
    shard assignment: each replay worker materializes exactly the members
    assigned to its shard, from their own spawned RNG streams.
    """

    config: WorkloadConfig
    users: tuple[UserPlan, ...]
    attacks: tuple[AttackPlan, ...]
    popular_pool: PopularContentPool

    @property
    def n_members(self) -> int:
        """Number of independently materializable plan members."""
        return len(self.users) + len(self.attacks)

    def member_weights(self) -> list[tuple[int, float]]:
        """``(member_index, planned_ops)`` for every member."""
        weights = [(i, p.planned_ops) for i, p in enumerate(self.users)]
        offset = len(self.users)
        weights.extend((offset + i, p.planned_ops)
                       for i, p in enumerate(self.attacks))
        return weights

    def materialize(self, members: Sequence[int] | None = None
                    ) -> "ScriptTable":
        """Materialize the given members (default: all) into a script table.

        The table is in the canonical ``(start, session_id)`` order, so
        materializing any partition of the members and merging the sorted
        parts stably reproduces exactly the unsharded generator's output.
        """
        from repro.workload.generator import materialize_members
        return materialize_members(self, members)
