"""Chaos plan for the allocation service: seeded solve-level mayhem.

:class:`repro.faults.plan.FaultPlan` breaks the *pipeline* (benchmark
gathers, solver tiers, node groups).  :class:`ChaosPlan` breaks the
*serving tier*: solves that crash, hang, come back slow, or return
corrupted results.  The same design rules apply:

* **Deterministic.**  Every draw is keyed by the identity of the solve —
  ``(fingerprint, attempt)`` — through a stable hash, never by call order
  or wall clock.  Two runs with the same seed inject identical faults, so
  the chaos suite's invariants (no lost requests, bit-identical responses)
  are checkable.
* **Pure.**  The plan is a frozen description; the service owns all
  bookkeeping.
* **Typed and in-process.**  A crash or hang is raised as
  :class:`~repro.service.errors.WorkerCrashError` /
  :class:`~repro.service.errors.WorkerHangError`, a slow attempt books its
  delay on the outcome, a corrupt one returns tampered data — nothing
  sleeps, since a solve runs on the serving tier's event loop.  The retry,
  breaker and degradation machinery handles them like any other failure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import _stable_key
from repro.obs import telemetry
from repro.service.errors import WorkerCrashError, WorkerHangError

#: Draw order: one uniform per (fingerprint, attempt) is split into bands.
KINDS = ("crash", "hang", "slow", "corrupt")


@dataclass(frozen=True)
class ChaosPlan:
    """What to break in the serving tier, keyed off a single seed.

    ``crash_rate`` / ``hang_rate`` / ``slow_rate`` / ``corrupt_rate``
        Per-(request, attempt) probabilities of each fault kind; bands of a
        single keyed uniform, so they are mutually exclusive per attempt and
        their sum must stay < 1.
    ``immune_after``
        When set, attempts numbered ``>= immune_after`` run clean — the
        knob for scenarios that must recover ("first try always crashes,
        retry always lands").  ``None`` leaves every attempt at risk.
    ``slow_seconds``
        The delay a slow attempt books on its outcome's wall time (nothing
        sleeps).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    immune_after: int | None = None
    slow_seconds: float = 0.01

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "slow_rate", "corrupt_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        total = self.crash_rate + self.hang_rate + self.slow_rate + self.corrupt_rate
        if total >= 1.0:
            raise ValueError(f"fault rates must sum below 1, got {total:g}")
        if self.immune_after is not None and self.immune_after < 1:
            raise ValueError("immune_after must be >= 1 (or None)")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return bool(
            self.crash_rate or self.hang_rate or self.slow_rate or self.corrupt_rate
        )

    # -- keyed deterministic draws -----------------------------------------

    def fault(self, fingerprint: str, attempt: int) -> str | None:
        """Fault kind (if any) hitting this solve attempt."""
        if not self.active:
            return None
        if self.immune_after is not None and attempt >= self.immune_after:
            return None
        rng = np.random.default_rng(
            (self.seed & 0xFFFFFFFF, _stable_key("solve", fingerprint, int(attempt)))
        )
        u = rng.random()
        edge = 0.0
        for kind, rate in zip(
            KINDS, (self.crash_rate, self.hang_rate, self.slow_rate, self.corrupt_rate)
        ):
            edge += rate
            if u < edge:
                return kind
        return None

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name, label in (
            ("crash_rate", "crash"),
            ("hang_rate", "hang"),
            ("slow_rate", "slow"),
            ("corrupt_rate", "corrupt"),
        ):
            v = getattr(self, name)
            if v:
                parts.append(f"{label}={v:.0%}")
        if self.immune_after is not None:
            parts.append(f"immune_after={self.immune_after}")
        return f"ChaosPlan({', '.join(parts)})"


def corrupt_outcome(outcome):
    """Deterministically tamper a solve outcome so validation must catch it.

    The first component's allocation is inflated past the node budget and
    the objective is wiped — the shape of a solve returning garbage after
    memory corruption, not a subtle near-miss.
    """
    allocation = dict(outcome.allocation)
    if allocation:
        first = sorted(allocation)[0]
        allocation[first] += sum(allocation.values()) + 1
    return dataclasses.replace(
        outcome,
        allocation=allocation,
        objective=math.nan,
        message="corrupted result (injected)",
    )


def chaotic_solve(plan: ChaosPlan, base_solve):
    """Wrap a ``solve_request``-shaped callable with chaos.

    The wrapper accepts the extra ``attempt`` keyword the service threads
    through, so each retry rolls its own fault draw.  A crash or hang is
    raised as its typed error and a slow attempt books its delay without
    sleeping.
    """

    def _solve(request, *, attempt=0):
        fingerprint = request.fingerprint()
        kind = plan.fault(fingerprint, attempt)
        if kind == "crash":
            telemetry.record_fault("worker_crash", "service")
            raise WorkerCrashError(fingerprint=fingerprint, detail="injected crash")
        if kind == "hang":
            telemetry.record_fault("worker_hang", "service")
            raise WorkerHangError(fingerprint=fingerprint)
        outcome = base_solve(request)
        if kind == "slow":
            telemetry.record_fault("worker_slow", "service")
            outcome = dataclasses.replace(
                outcome, wall_time=outcome.wall_time + plan.slow_seconds
            )
        elif kind == "corrupt":
            telemetry.record_fault("result_corrupt", "service")
            outcome = corrupt_outcome(outcome)
        return outcome

    return _solve


__all__ = [
    "ChaosPlan",
    "KINDS",
    "chaotic_solve",
    "corrupt_outcome",
]
