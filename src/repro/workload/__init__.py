"""Synthetic U1 workload generator.

The released U1 trace is 758 GB and cannot be shipped with this repository;
instead, this package generates a statistically faithful synthetic workload
using the empirical models the paper reports:

* a user population split into occasional / upload-only / download-only /
  heavy classes with a heavily skewed per-user activity weight
  (:mod:`repro.workload.population`);
* per-extension file-size models, a file-type taxonomy, cross-user content
  duplication and file updates (:mod:`repro.workload.filemodel`);
* diurnal and weekly activity modulation (:mod:`repro.workload.diurnal`);
* session arrivals, the session-length mixture and the active/cold session
  split (:mod:`repro.workload.sessionmodel`);
* a Markov chain over API operations reproducing the user-centric request
  graph of Fig. 8 together with power-law inter-operation gaps
  (:mod:`repro.workload.opmodel`);
* DDoS episodes (:mod:`repro.workload.attacks`).

:class:`~repro.workload.generator.SyntheticTraceGenerator` stitches these
models together.  Generation is a two-pass pipeline: :meth:`plan` runs the
global planning pass (a :class:`~repro.workload.plan.WorkloadPlan`) and
:func:`~repro.workload.generator.materialize_members` turns plan members
into a :class:`~repro.workload.events.ScriptTable` of session scripts
from per-user RNG streams, inside the sharded replay
workers of :meth:`repro.backend.cluster.U1Cluster.replay_plan`.
"""

from repro.workload.config import WorkloadConfig
from repro.workload.events import ScriptTable
from repro.workload.generator import SyntheticTraceGenerator, materialize_members
from repro.workload.plan import AttackPlan, SessionSpec, UserPlan, WorkloadPlan
from repro.workload.population import User, UserClass, build_population
from repro.workload.filemodel import (
    FileModel,
    ExtensionProfile,
    FILE_CATEGORIES,
    PopularContentPool,
)
from repro.workload.attacks import AttackEpisode

__all__ = [
    "WorkloadConfig",
    "ScriptTable",
    "SyntheticTraceGenerator",
    "materialize_members",
    "AttackPlan",
    "SessionSpec",
    "UserPlan",
    "WorkloadPlan",
    "User",
    "UserClass",
    "build_population",
    "FileModel",
    "ExtensionProfile",
    "FILE_CATEGORIES",
    "PopularContentPool",
    "AttackEpisode",
]
