"""Mitigation policies: what the client library does about injected faults.

A :class:`MitigationPolicy` is declarative and frozen, like the storage
:class:`~repro.whatif.simulator.PolicySpec`.  Its two kinds, ``none`` and
``retry``, are the client-side mitigations the API server applies per
request, so every policy a sweep evaluates offline
(:func:`repro.faults.simulator.simulate_mitigation`) is one a live replay
can run too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MitigationPolicy", "default_mitigations"]

_KINDS = ("none", "retry")


@dataclass(frozen=True)
class MitigationPolicy:
    """One mitigation configuration of a fault sweep."""

    name: str = "do-nothing"
    #: "none" | "retry".
    kind: str = "none"
    #: Retry budget: additional attempts after the first (``retry`` only).
    max_retries: int = 0
    #: Exponential backoff: attempt ``k`` (0-based) waits
    #: ``backoff_base * backoff_factor ** k`` seconds before retrying.
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    description: str = ""

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mitigation kind: {self.kind!r}")
        if self.kind == "retry" and self.max_retries < 1:
            raise ValueError("retry mitigation needs max_retries >= 1")
        if self.backoff_base < 0.0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base must be >= 0 and backoff_factor "
                             ">= 1")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), in seconds."""
        return self.backoff_base * self.backoff_factor ** attempt

    def total_backoff(self, retries: int) -> float:
        """Backoff accumulated over ``retries`` attempts, in seconds."""
        return sum(self.backoff(k) for k in range(retries))


def default_mitigations() -> list[MitigationPolicy]:
    """The standard sweep set: do-nothing first, then two retry budgets."""
    return [
        MitigationPolicy("do-nothing", "none",
                         description="faults hit users unmitigated"),
        MitigationPolicy("retry-1", "retry", max_retries=1,
                         backoff_base=1.0,
                         description="one retry after 1s backoff"),
        MitigationPolicy("retry-3", "retry", max_retries=3,
                         backoff_base=1.0, backoff_factor=2.0,
                         description="3 retries, exponential 1s/2s/4s"),
    ]
