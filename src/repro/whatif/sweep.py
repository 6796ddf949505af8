"""Policy sweep runner: N storage what-ifs from one replayed trace.

:func:`run_sweep` decodes a trace once (:class:`~repro.whatif.simulator.
StorageTrace`) and runs :func:`~repro.whatif.simulator.simulate_policy` for
every :class:`~repro.whatif.simulator.PolicySpec` — by default the Section 9
quartet (baseline, no-dedup, delta-updates, age-threshold tiering) plus a
capacity-bounded LRU tier sized off the baseline outcome.  The result
renders as a comparison table (``python -m repro whatif``) or as the JSON
payload of ``repro whatif --json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.backend.uploadjob import UPLOAD_CHUNK_BYTES
from repro.util.units import DAY, format_bytes
from repro.whatif.costs import StorageCostModel
from repro.whatif.simulator import (
    PolicyOutcome,
    PolicySpec,
    StorageTrace,
    simulate_policy,
)
from repro.whatif.tiering import TieringPolicy

__all__ = ["SweepResult", "default_policies", "run_sweep"]


def default_policies(delta_update_factor: float = 0.05,
                     tier_age: float = DAY,
                     hot_capacity_bytes: int | None = None) -> list[PolicySpec]:
    """The standard Section 9 policy set (baseline first).

    ``hot_capacity_bytes`` sizes the capacity-bounded LRU variant; ``None``
    omits it (:func:`run_sweep` sizes it automatically off the baseline).
    """
    policies = [
        PolicySpec("baseline", description="dedup on, full re-uploads, one tier"),
        PolicySpec("no-dedup", dedup=False,
                   description="cross-user dedup disabled (ablation)"),
        PolicySpec("delta-updates", delta_update_factor=delta_update_factor,
                   description=f"updates upload {delta_update_factor:.0%} "
                               "of the file"),
        PolicySpec("tier-age", tiering=TieringPolicy(age_threshold=tier_age),
                   description=f"cold after {tier_age / DAY:g}d idle, "
                               "promote on access"),
    ]
    if hot_capacity_bytes is not None:
        policies.append(PolicySpec(
            "tier-lru-cap",
            tiering=TieringPolicy(age_threshold=tier_age,
                                  hot_capacity_bytes=hot_capacity_bytes,
                                  eviction="lru"),
            description=f"hot tier capped at "
                        f"{format_bytes(hot_capacity_bytes)} (LRU)"))
    return policies


@dataclass
class SweepResult:
    """Outcomes of one policy sweep (baseline first)."""

    outcomes: list[PolicyOutcome]
    #: Wall-clock of the whole sweep, decode included.
    seconds: float

    @property
    def baseline(self) -> PolicyOutcome:
        return self.outcomes[0]

    def outcome(self, name: str) -> PolicyOutcome:
        """The outcome of the policy called ``name``."""
        for outcome in self.outcomes:
            if outcome.spec.name == name:
                return outcome
        raise KeyError(name)

    def _tiered(self) -> PolicyOutcome | None:
        """The first tiering outcome (the headline tier metrics source)."""
        for outcome in self.outcomes:
            if outcome.spec.tiering is not None:
                return outcome
        return None

    def to_json(self) -> dict:
        """JSON payload: per-policy figures plus the headline tier metrics."""
        tiered = self._tiered()
        cheapest = min(self.outcomes, key=lambda o: (o.monthly_cost,
                                                     o.spec.name))
        return {
            "whatif_sweep_seconds": self.seconds,
            "n_policies": len(self.outcomes),
            # Per-policy pass seconds: the vectorised age-only passes sit
            # orders of magnitude below the capacity passes' tier engine,
            # and the first baseline pass carries the shared metadata pass.
            "whatif_per_policy_seconds": {
                outcome.spec.name: outcome.seconds
                for outcome in self.outcomes
            },
            "policies": [outcome.to_json() for outcome in self.outcomes],
            "baseline_monthly_cost": self.baseline.monthly_cost,
            "cheapest_policy": cheapest.spec.name,
            "cold_bytes": tiered.accounting.cold_bytes if tiered else 0,
            "hot_hit_rate": (tiered.accounting.hot_hit_rate
                             if tiered else 1.0),
        }

    def format_table(self) -> str:
        """Render the sweep as an aligned comparison table."""
        header = (f"{'policy':<14} {'stored':>10} {'uploaded':>10} "
                  f"{'cold':>10} {'hot-hit':>8} {'$/month':>10} "
                  f"{'vs base':>9}  description")
        lines = [header, "-" * len(header)]
        base_cost = self.baseline.monthly_cost
        for outcome in self.outcomes:
            accounting = outcome.accounting
            delta = outcome.monthly_cost - base_cost
            lines.append(
                f"{outcome.spec.name:<14} "
                f"{format_bytes(accounting.bytes_stored):>10} "
                f"{format_bytes(accounting.bytes_uploaded):>10} "
                f"{format_bytes(accounting.cold_bytes):>10} "
                f"{accounting.hot_hit_rate:>8.1%} "
                f"{outcome.monthly_cost:>10.4f} "
                f"{delta:>+9.4f}  {outcome.spec.description}")
        return "\n".join(lines)


def run_sweep(source: StorageTrace | object,
              policies: list[PolicySpec] | None = None,
              cost_model: StorageCostModel | None = None,
              chunk_bytes: int = UPLOAD_CHUNK_BYTES,
              end_time: float | None = None,
              delta_update_factor: float = 0.05,
              tier_age: float = DAY) -> SweepResult:
    """Sweep storage policies over one trace (dataset or decoded trace).

    With ``policies=None`` the default set runs: baseline, no-dedup,
    delta-updates and age tiering first, then the capacity-bounded LRU
    tier sized at half the age-tiered pass's *final hot occupancy* — a
    budget below what age demotion alone reaches, so the eviction path is
    actually exercised at any trace scale.
    """
    started = time.perf_counter()
    trace = source if isinstance(source, StorageTrace) \
        else StorageTrace.from_dataset(source)
    cost_model = cost_model or StorageCostModel()

    def run(spec: PolicySpec) -> PolicyOutcome:
        return simulate_policy(trace, spec, cost_model=cost_model,
                               chunk_bytes=chunk_bytes, end_time=end_time)

    if policies is None:
        outcomes = [run(spec)
                    for spec in default_policies(delta_update_factor,
                                                 tier_age)]
        tiered = next(o for o in outcomes if o.spec.tiering is not None)
        capacity = max(1, tiered.accounting.hot_bytes // 2
                       or outcomes[0].accounting.bytes_stored // 8)
        outcomes.append(run(default_policies(
            delta_update_factor, tier_age, hot_capacity_bytes=capacity)[-1]))
    else:
        if not policies:
            raise ValueError("policies must not be empty")
        outcomes = [run(spec) for spec in policies]
    return SweepResult(outcomes=outcomes,
                       seconds=time.perf_counter() - started)
