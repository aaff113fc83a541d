"""Per-component drift models: how the "machine" decays a static plan.

The related DLB literature (AMReX mesh-and-particle study, Mohammed et
al.'s two-level DLB) motivates exactly three shapes of decay:

* ``linear``      — gradual monotone drift (particles accreting onto one
  level, a component's grid refining), the canonical killer of a frozen
  static plan;
* ``step``        — a regime change partway through the run (restart from
  a checkpoint onto different hardware, a physics package switching on);
* ``walk``        — a seeded geometric random walk (OS jitter with memory,
  slowly wandering contention).

Every multiplier is a pure function of ``(component, step)`` through
:func:`repro.util.rng.keyed_rng`, so two strategies replaying the same
workload see *bit-identical* drift regardless of how they interleave
queries — the property that makes static-vs-dynamic comparisons fair.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.util.rng import keyed_rng

_KINDS = ("none", "linear", "step", "walk")

#: Multipliers are clamped here so no drift model can make work vanish
#: (or explode past what a refitter could plausibly track).
_FLOOR, _CEIL = 0.05, 20.0


@dataclass(frozen=True)
class DriftSpec:
    """Shape of one component's drift over a run of ``steps`` steps.

    ``rate`` is the total fractional change across the whole run for
    ``linear`` (+0.6 means 60% slower by the last step), the jump height
    for ``step``, and the per-step geometric standard deviation for
    ``walk``.  ``at`` places the ``step`` jump as a fraction of the run.
    """

    kind: str = "none"
    rate: float = 0.0
    at: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected {_KINDS}")
        if not (0.0 <= self.at <= 1.0):
            raise ValueError(f"step position `at` must be in [0, 1], got {self.at}")
        if self.kind == "walk" and self.rate < 0:
            raise ValueError("walk rate is a standard deviation; must be >= 0")


class DriftProfile:
    """Deterministic drift multipliers for every (component, step) pair.

    ``walk`` increments are keyed per ``(component, k)`` and prefix-summed
    lazily, so ``multiplier`` stays order-independent while a full-run
    query costs O(steps) once per component (then O(1) from cache).
    """

    def __init__(
        self,
        specs: Mapping[str, DriftSpec],
        steps: int,
        *,
        seed: int = 0,
    ) -> None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.specs = dict(specs)
        self.steps = int(steps)
        self.seed = int(seed)
        self._walks: dict[str, np.ndarray] = {}

    def spec(self, component: str) -> DriftSpec:
        return self.specs.get(component, DriftSpec())

    def _walk_curve(self, component: str, sigma: float) -> np.ndarray:
        curve = self._walks.get(component)
        if curve is None:
            increments = np.array(
                [
                    keyed_rng(self.seed, "drift-walk", component, k).normal(0.0, sigma)
                    for k in range(self.steps)
                ]
            )
            curve = np.exp(np.cumsum(increments))
            self._walks[component] = curve
        return curve

    def multiplier(self, component: str, step: int) -> float:
        """Slowdown (>1) or speedup (<1) factor for one component-step."""
        if not (0 <= step < self.steps):
            raise ValueError(f"step {step} outside run of {self.steps}")
        spec = self.spec(component)
        progress = step / max(self.steps - 1, 1)
        if spec.kind == "none" or spec.rate == 0.0:
            m = 1.0
        elif spec.kind == "linear":
            m = 1.0 + spec.rate * progress
        elif spec.kind == "step":
            m = 1.0 + (spec.rate if progress >= spec.at else 0.0)
        else:  # walk
            m = float(self._walk_curve(component, spec.rate)[step])
        return float(min(max(m, _FLOOR), _CEIL))

    def describe(self) -> str:
        parts = []
        for name in sorted(self.specs):
            s = self.specs[name]
            if s.kind == "none" or s.rate == 0.0:
                continue
            parts.append(f"{name}:{s.kind}{s.rate:+g}")
        return f"Drift({', '.join(parts) or 'none'}, seed={self.seed})"


def drift_preset(
    name: str,
    components: tuple[str, ...],
    steps: int,
    *,
    rate: float = 0.6,
    seed: int = 0,
) -> DriftProfile:
    """Named drift scenarios shared by the CLI, benchmarks, and experiments.

    ``linear`` drifts the *first* component up by ``rate`` while easing the
    others down by a third of it — total work roughly conserved, balance
    destroyed, which is the regime where rebalancing pays.  ``step`` jumps
    the first component mid-run; ``walk`` wanders every component
    independently; ``none`` keeps the machine honest.
    """
    if not components:
        raise ValueError("drift preset needs at least one component")
    first, rest = components[0], components[1:]
    if name == "none":
        specs: dict[str, DriftSpec] = {}
    elif name == "linear":
        specs = {first: DriftSpec("linear", rate=rate)}
        specs.update({c: DriftSpec("linear", rate=-rate / 3.0) for c in rest})
    elif name == "step":
        specs = {first: DriftSpec("step", rate=rate, at=0.4)}
    elif name == "walk":
        sigma = rate / max(np.sqrt(steps), 1.0)
        specs = {c: DriftSpec("walk", rate=float(sigma)) for c in components}
    else:
        raise ValueError(
            f"unknown drift preset {name!r}; expected none/linear/step/walk"
        )
    return DriftProfile(specs, steps, seed=seed)
