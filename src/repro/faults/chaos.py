"""Chaos plan for the allocation service: seeded worker-level mayhem.

:class:`repro.faults.plan.FaultPlan` breaks the *pipeline* (benchmark
gathers, solver tiers, node groups).  :class:`ChaosPlan` breaks the
*serving tier*: workers that crash mid-solve, hang past their harvest
budget, come back slow, or return corrupted results.  The same design rules
apply:

* **Deterministic.**  Every draw is keyed by the identity of the solve —
  ``(fingerprint, attempt)`` — through a stable hash, never by call order
  or wall clock.  Two runs with the same seed inject identical faults, so
  the chaos suite's invariants (no lost requests, bit-identical responses)
  are checkable.
* **Pure.**  The plan is a frozen description; the service and the
  supervised pool own all bookkeeping.
* **Typed failures.**  Simulated faults surface as the same
  :class:`~repro.service.errors.WorkerCrashError` /
  :class:`~repro.service.errors.WorkerHangError` the real pool raises, so
  the retry/breaker/degradation machinery cannot tell drills from fires.

Two execution modes share one plan and one injector (``chaotic_solve``):

* **in-process**: faults are raised/applied directly, nothing sleeps — fast
  and fully deterministic, what the seeded suite and the ``--workers 0``
  soak use, and what a tier's direct requests take on the event loop;
* **in-worker** (``physical=True``, reached through ``chaos_pool_solve``,
  the service's one pool-worker entry point): a crash is ``os._exit``, a
  hang is a real sleep the supervisor must kill.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import _stable_key
from repro.obs import telemetry
from repro.obs.trace import span
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
    ``slow_seconds`` / ``hang_seconds``
        Physical delays for the in-worker mode.  In-process nothing sleeps:
        a slow attempt books ``slow_seconds`` on its outcome's wall time and
        a hang raises immediately — an in-process attempt may be running on
        the serving tier's event loop.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    immune_after: int | None = None
    slow_seconds: float = 0.01
    hang_seconds: float = 30.0

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
        if self.slow_seconds < 0 or self.hang_seconds <= 0:
            raise ValueError("slow_seconds must be >= 0 and hang_seconds > 0")

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

    # -- wire format (ships to pool workers) --------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: v for k, v in out.items() if v is not None}

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosPlan":
        return cls(**payload)

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
    the objective is wiped — the shape of a worker returning garbage after
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


def chaotic_solve(plan: ChaosPlan, base_solve, *, physical: bool = False):
    """Wrap a ``solve_request``-shaped callable with chaos.

    The wrapper accepts the extra ``attempt`` keyword the service threads
    through, so each retry rolls its own fault draw.  In-process, a crash
    or hang is raised as the typed error the supervised pool would raise
    and a slow attempt books its delay without sleeping; with ``physical``
    (inside a pool worker) the process really dies or really sleeps, and
    the supervisor has to notice.
    """

    def _solve(request, *, deadline=None, attempt=0):
        fingerprint = request.fingerprint()
        kind = plan.fault(fingerprint, attempt)
        if kind == "crash":
            telemetry.record_fault("worker_crash", "service")
            if physical:
                os._exit(3)
            raise WorkerCrashError(
                worker_id=-1, fingerprint=fingerprint, detail="injected crash"
            )
        if kind == "hang":
            telemetry.record_fault("worker_hang", "service")
            if not physical:
                raise WorkerHangError(
                    worker_id=-1, timeout=deadline, fingerprint=fingerprint
                )
            time.sleep(plan.hang_seconds)
        outcome = base_solve(request, deadline=deadline)
        if kind == "slow":
            telemetry.record_fault("worker_slow", "service")
            if physical and plan.slow_seconds:
                time.sleep(plan.slow_seconds)
            outcome = dataclasses.replace(
                outcome, wall_time=outcome.wall_time + plan.slow_seconds
            )
        elif kind == "corrupt":
            telemetry.record_fault("result_corrupt", "service")
            outcome = corrupt_outcome(outcome)
        return outcome

    return _solve


def chaos_pool_solve(
    payload: dict,
    deadline: float | None,
    chaos: dict | None = None,
    attempt: int = 0,
) -> dict:
    """The one picklable entry point a pool worker runs: wire formats only.

    With ``chaos=None`` — production — this is ``solve_request`` between
    two dict conversions.  With a plan it injects *physical* faults: the
    supervisor sees a real process death or a real hang.
    """
    from repro.service.request import SolveRequest
    from repro.service.solver import solve_request

    request = SolveRequest.from_dict(payload)
    with span("worker.solve", pid=os.getpid()):
        if chaos:
            outcome = chaotic_solve(
                ChaosPlan.from_dict(chaos), solve_request, physical=True
            )(request, deadline=deadline, attempt=attempt)
        else:
            outcome = solve_request(request, deadline=deadline)
    return outcome.to_dict()


__all__ = [
    "ChaosPlan",
    "KINDS",
    "chaos_pool_solve",
    "chaotic_solve",
    "corrupt_outcome",
]
