"""Tiered admission control: accept, degrade to a cheap answer, or shed.

The batch executor's :class:`~repro.service.errors.ServiceOverloadError`
backpressure is binary — a batch either fits under ``max_pending`` or is
refused whole.  A front end facing live traffic needs gradations: when the
tier runs hot, *background* traffic should lose its exact solves long
before an *interactive* user notices anything, and refusal should be the
last resort, not the first.

Each priority class gets two thresholds, expressed as fractions of the
tier's pending-work capacity:

* below ``degrade_at`` — **accept**: the request gets the full path
  (cache, coalescing, exact solve);
* between ``degrade_at`` and ``shed_at`` — **degrade**: the request is
  answered from the cheap rungs of the existing degradation ladder (stale
  cache if present, else the polynomial-time greedy), costing microseconds
  instead of a solve, with explicit ``source`` provenance;
* at or above ``shed_at`` — **shed**: a typed
  :class:`~repro.service.errors.ServiceOverloadError` with a
  ``retry_after`` hint.

Default thresholds stagger the classes so load strips work away from the
bottom first: background degrades at 45% full and sheds at 70%, batch at
70%/90%, interactive at 90%/100%.  Every decision is counted per class in
``service_admission_total``, so a scrape shows exactly who is being
squeezed and how hard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

#: Priority classes, highest first.  Unknown classes are treated as the
#: lowest: traffic that does not declare itself is the first to degrade.
PRIORITIES = ("interactive", "batch", "background")

DEFAULT_PRIORITY = "batch"


class AdmissionDecision(enum.Enum):
    ACCEPT = "accept"
    DEGRADE = "degrade"
    SHED = "shed"


@dataclass(frozen=True)
class ClassThresholds:
    """One class's degrade/shed points, as fractions of capacity."""

    degrade_at: float
    shed_at: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.degrade_at <= self.shed_at:
            raise ValueError(
                f"need 0 <= degrade_at <= shed_at, got "
                f"{self.degrade_at}/{self.shed_at}"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Capacity plus per-class thresholds (see module docstring)."""

    max_pending: int = 64
    thresholds: dict[str, ClassThresholds] = field(
        default_factory=lambda: {
            "interactive": ClassThresholds(degrade_at=0.90, shed_at=1.00),
            "batch": ClassThresholds(degrade_at=0.70, shed_at=0.90),
            "background": ClassThresholds(degrade_at=0.45, shed_at=0.70),
        }
    )

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not self.thresholds:
            raise ValueError("an admission policy needs at least one class")

    def for_class(self, priority: str) -> ClassThresholds:
        """Thresholds for ``priority``; unknown classes rank at the bottom."""
        got = self.thresholds.get(priority)
        if got is not None:
            return got
        return min(
            self.thresholds.values(), key=lambda t: (t.shed_at, t.degrade_at)
        )


class AdmissionController:
    """Apply a policy to the tier's live pending count, with accounting."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.accepted = 0
        self.degraded = 0
        self.shed = 0

    def decide(self, priority: str, pending: int) -> AdmissionDecision:
        """Admission verdict for one arriving request.

        ``pending`` is the tier's in-flight/queued request count *before*
        this request is added; the fill fraction it implies is compared to
        the class thresholds.
        """
        thresholds = self.policy.for_class(priority)
        fill = pending / self.policy.max_pending
        if fill >= thresholds.shed_at:
            decision = AdmissionDecision.SHED
            self.shed += 1
        elif fill >= thresholds.degrade_at:
            decision = AdmissionDecision.DEGRADE
            self.degraded += 1
        else:
            decision = AdmissionDecision.ACCEPT
            self.accepted += 1
        REGISTRY.counter("service_admission_total").inc(
            decision=decision.value, priority=str(priority)
        )
        return decision

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "degraded": self.degraded,
            "shed": self.shed,
        }
