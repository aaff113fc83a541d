"""Migration cost: what a rebalance actually charges the run.

Moving nodes between components is not free — ranks checkpoint, the
incoming group restarts from the checkpoint, domain decompositions are
rebuilt.  The cost is affine in the nodes moved and calibrated off the
first observed step time, the natural unit:

    cost = RESTART_FRACTION * step + PER_NODE_FRACTION * step * nodes_moved

where ``nodes_moved`` counts only the growth side (a node leaving one
component and joining another is one move, not two): a full restart costs
about half a step, and each moved node adds a small slice of one.  A move
forced before any step has been timed (a crash at step 0) is charged
``UNCALIBRATED_FIXED_SECONDS + UNCALIBRATED_PER_NODE_SECONDS * nodes_moved``.
The controller gates every proposed migration on this cost: a rebalance is
applied only when the refitted curves predict the makespan saved over the
*remaining* steps exceeds ``gain_factor`` times the cost.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

#: Share of the calibrating step time a restart costs.
RESTART_FRACTION = 0.5
#: Share of the calibrating step time each moved node adds.
PER_NODE_FRACTION = 0.02
#: The charge before any step has been timed: fixed seconds, and seconds
#: per node moved.
UNCALIBRATED_FIXED_SECONDS = 5.0
UNCALIBRATED_PER_NODE_SECONDS = 0.5


def _counts(allocation: Mapping[str, int] | object) -> dict[str, int]:
    items = allocation.items() if hasattr(allocation, "items") else dict(allocation).items()
    return {str(k): int(v) for k, v in items}


def nodes_moved(
    old: Mapping[str, int] | object, new: Mapping[str, int] | object
) -> int:
    """Nodes changing owner: the sum of positive per-component growth."""
    a, b = _counts(old), _counts(new)
    return sum(max(b.get(name, 0) - a.get(name, 0), 0) for name in set(a) | set(b))


def migration_cost(
    step_seconds: float | None,
    old: Mapping[str, int] | object,
    new: Mapping[str, int] | object,
) -> float:
    """Seconds the move ``old -> new`` stalls the run, calibrated off
    ``step_seconds`` (``None``: no step timed yet)."""
    if step_seconds is not None and step_seconds <= 0:
        raise ValueError("step_seconds must be > 0")
    moved = nodes_moved(old, new)
    if moved == 0:
        return 0.0
    if step_seconds is None:
        return UNCALIBRATED_FIXED_SECONDS + UNCALIBRATED_PER_NODE_SECONDS * moved
    fixed = RESTART_FRACTION * step_seconds
    return fixed + PER_NODE_FRACTION * step_seconds * moved


@dataclass(frozen=True)
class MigrationEvent:
    """One rebalance decision, applied or not — the audit record."""

    step: int
    old: dict[str, int]
    new: dict[str, int]
    predicted_gain: float  # makespan saved over remaining steps, per the models
    cost: float
    reason: str  # "interval" | "stale" | "crash"
    outcome: str  # "applied" | "gated" | "aborted"

    def __post_init__(self) -> None:
        if self.reason not in ("interval", "stale", "crash"):
            raise ValueError(f"unknown migration reason {self.reason!r}")
        if self.outcome not in ("applied", "gated", "aborted"):
            raise ValueError(f"unknown migration outcome {self.outcome!r}")

    @property
    def nodes_moved(self) -> int:
        return nodes_moved(self.old, self.new)

    def describe(self) -> str:
        return (
            f"step {self.step}: {self.outcome} ({self.reason}) "
            f"{self.nodes_moved} node(s), gain {self.predicted_gain:.2f}s "
            f"vs cost {self.cost:.2f}s"
        )
