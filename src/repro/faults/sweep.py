"""Mitigation-policy sweep runner: N fault what-ifs from one faulted trace.

:func:`run_fault_sweep` decodes a faulted trace once
(:class:`~repro.faults.simulator.FaultTrace`) and runs
:func:`~repro.faults.simulator.simulate_mitigation` for every
:class:`~repro.faults.mitigation.MitigationPolicy` — by default the
three-policy set of :func:`~repro.faults.mitigation.default_mitigations`
(do-nothing and two retry budgets, each one a live replay can run too).
The result renders as a comparison table
(``python -m repro faultsweep``) or as the JSON payload of
``repro faultsweep --json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.faults.mitigation import MitigationPolicy, default_mitigations
from repro.faults.runtime import FaultSchedule, compile_plan
from repro.faults.simulator import (
    FaultTrace,
    MitigationOutcome,
    simulate_mitigation,
)
from repro.faults.spec import FaultPlan

__all__ = ["FaultSweepResult", "run_fault_sweep"]


@dataclass
class FaultSweepResult:
    """Outcomes of one mitigation sweep (do-nothing baseline first)."""

    outcomes: list[MitigationOutcome]
    #: Wall-clock of the whole sweep, decode included.
    seconds: float

    @property
    def baseline(self) -> MitigationOutcome:
        return self.outcomes[0]

    def outcome(self, name: str) -> MitigationOutcome:
        """The outcome of the policy called ``name``."""
        for outcome in self.outcomes:
            if outcome.policy.name == name:
                return outcome
        raise KeyError(name)

    @property
    def best(self) -> MitigationOutcome:
        """The lowest-penalty policy (ties broken by name for stability)."""
        return min(self.outcomes, key=lambda o: (o.penalty, o.policy.name))

    def to_json(self) -> dict:
        return {
            "faultsweep_seconds": self.seconds,
            "n_policies": len(self.outcomes),
            #: Scalar sweep cost per policy — the figure the CI bound and
            #: the acceptance criterion ("N policies for the cost of one
            #: replay") are stated in.
            "faultsweep_per_policy_seconds":
                self.seconds / max(len(self.outcomes), 1),
            #: Per-policy breakdown (the first policy carries the shared
            #: column decode).
            "faultsweep_policy_seconds": {
                outcome.policy.name: outcome.seconds
                for outcome in self.outcomes
            },
            "policies": [outcome.to_json() for outcome in self.outcomes],
            "baseline_error_rate": self.baseline.error_rate,
            "best_policy": self.best.policy.name,
        }

    def format_table(self) -> str:
        """Render the sweep as an aligned comparison table."""
        header = (f"{'policy':<14} {'errors':>8} {'err-rate':>9} "
                  f"{'recovered':>10} {'p99':>8} {'p99.9x':>7} "
                  f"{'ops+':>6} {'penalty':>9}  description")
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            acc = outcome.accounting
            lines.append(
                f"{outcome.policy.name:<14} "
                f"{acc.user_visible_errors:>8} "
                f"{outcome.error_rate:>9.4%} "
                f"{acc.requests_recovered:>10} "
                f"{outcome.p99_latency:>8.4f} "
                f"{outcome.p999_inflation:>7.2f} "
                f"{outcome.ops_overhead:>6.3f} "
                f"{outcome.penalty:>9.3f}  {outcome.policy.description}")
        return "\n".join(lines)


def run_fault_sweep(source: FaultTrace | object,
                    schedule: FaultSchedule | FaultPlan,
                    policies: list[MitigationPolicy] | None = None,
                    config=None) -> FaultSweepResult:
    """Sweep mitigation policies over one faulted trace.

    ``source`` is a :class:`~repro.trace.dataset.TraceDataset` (or an
    already-decoded :class:`FaultTrace`) replayed with the fault plan
    behind ``schedule`` and **no live mitigation** — see the module
    docstring of :mod:`repro.faults.simulator` for why the unmitigated
    trace is the complete request log.  ``schedule`` is the replaying
    cluster's compiled ``fault_schedule`` (a raw :class:`FaultPlan` is
    compiled here for convenience).  ``config`` is the replaying
    :class:`~repro.backend.cluster.ClusterConfig`; it is required when the
    plan has degraded-process windows (RPC rows must map back to fleet
    worker indices) and ignored otherwise.
    """
    started = time.perf_counter()
    if isinstance(schedule, FaultPlan):
        schedule = compile_plan(schedule)
    if isinstance(source, FaultTrace):
        trace = source
    elif config is not None:
        trace = FaultTrace.from_dataset(
            source,
            processes_per_machine=config.processes_per_machine,
            machine_names=config.machine_names())
    else:
        trace = FaultTrace.from_dataset(source)

    if policies is None:
        policies = default_mitigations()
    elif not policies:
        raise ValueError("policies must not be empty")
    outcomes = [simulate_mitigation(trace, schedule, policy)
                for policy in policies]
    return FaultSweepResult(outcomes=outcomes,
                            seconds=time.perf_counter() - started)
