"""The fault plan: a seeded, pure description of what goes wrong and when.

Design rules:

* **Deterministic.**  Every draw is keyed by the *identity* of the event
  (benchmark run at node count ``n``, attempt ``k``; fragment ``i`` on a
  group; solver tier ``t``) through a stable hash, never by call order.
  Two plans with the same seed and rates inject identical faults no matter
  how callers interleave their queries — a property test pins this.
* **Pure.**  The plan holds no mutable state; simulators own whatever
  bookkeeping ("this node already died") the physics requires.
* **Typed failures.**  Injection surfaces as exceptions carrying the event
  identity, so retry loops and recovery planners can reason about them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import telemetry
from repro.util.rng import keyed_rng, stable_key as _stable_key  # noqa: F401  (re-exported)

_KINDS = ("failure", "timeout", "permanent")


class FaultInjectionError(RuntimeError):
    """Base class for every injected fault surfaced as an exception."""


@dataclass(frozen=True)
class BenchmarkFault:
    """One injected gather-step fault: a benchmark run that did not finish."""

    kind: str  # "failure" (crashed run), "timeout" (hung run), "permanent"
    scope: str  # which gather campaign ("cesm", "fmo", ...)
    nodes: int  # total node count of the failed run
    attempt: int  # 0 = first try, 1+ = retries

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def recoverable(self) -> bool:
        """Permanent faults hit every retry; the point must be dropped."""
        return self.kind != "permanent"


class BenchmarkRunError(FaultInjectionError):
    """A gather-step benchmark run failed (crash, timeout, or dead point)."""

    def __init__(self, fault: BenchmarkFault) -> None:
        self.fault = fault
        super().__init__(
            f"benchmark run at {fault.nodes} nodes "
            f"{'timed out' if fault.kind == 'timeout' else 'failed'} "
            f"(scope={fault.scope}, attempt={fault.attempt})"
        )


class NodeCrashError(FaultInjectionError):
    """A node group died mid-run, taking its component's work with it."""

    def __init__(self, *, component: str, lost_nodes: int, fraction: float) -> None:
        self.component = component
        self.lost_nodes = lost_nodes
        self.fraction = float(fraction)
        super().__init__(
            f"node group hosting {component!r} ({lost_nodes} nodes) crashed "
            f"{100 * self.fraction:.0f}% into the run"
        )


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, keyed off a single seed.

    Gather-step knobs:

    ``fail_rate``
        Probability that one benchmark run (one node count, one attempt)
        crashes outright.  Independent per attempt, so retries can succeed.
    ``timeout_rate``
        Probability that a run hangs past its wall limit instead; retried
        the same way but reported distinctly.
    ``permanent_rate``
        Probability that a benchmark *point* (node count) is dead for every
        attempt — a machine-side incompatibility no retry fixes.  These are
        what the resilient gather must drop.
    ``straggler_rate`` / ``straggler_scale``
        Probability that a run completes but one timing is inflated by a
        uniform factor in ``[1.5, straggler_scale]`` (OS jitter burst,
        contended filesystem) — the observation is annotated, not lost.

    Solve-step knobs:

    ``solver_stall``
        Solver tiers forced to stall; the one MINLP tier is ``"oa"``.  A
        stalled OA hands the solve to the application's exact direct
        answer, or to the greedy fallback when it has none.

    Execute-step knobs:

    ``crash_component`` / ``crash_group`` + ``crash_fraction``
        One mid-run node-group loss: for CESM the group hosting a named
        component, for FMO/GDDI a group index, dying ``crash_fraction`` of
        the way through the run.
    ``crash_step``
        Dynamic-run variant: the crash fires at the top of this step of a
        :class:`repro.dynlb.workload.DynamicWorkload` (optionally targeting
        ``crash_component``; the largest group dies otherwise), and
        ``crash_fraction`` of the interrupted step's work is lost.  Landing
        it inside a migration window aborts the in-flight move — the
        rebalance/fault interplay the dynlb tests pin.
    """

    seed: int = 0
    fail_rate: float = 0.0
    timeout_rate: float = 0.0
    permanent_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_scale: float = 3.0
    solver_stall: tuple[str, ...] = field(default=())
    crash_component: str | None = None
    crash_group: int | None = None
    crash_fraction: float = 0.5
    crash_step: int | None = None

    def __post_init__(self) -> None:
        for name in ("fail_rate", "timeout_rate", "permanent_rate", "straggler_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.fail_rate + self.timeout_rate >= 1.0:
            raise ValueError("fail_rate + timeout_rate must be < 1")
        if self.straggler_scale < 1.5:
            raise ValueError("straggler_scale must be >= 1.5")
        if not (0.0 < self.crash_fraction < 1.0):
            raise ValueError("crash_fraction must be in (0, 1)")
        object.__setattr__(self, "solver_stall", tuple(self.solver_stall))
        for tier in self.solver_stall:
            if tier != "oa":
                raise ValueError(f"unknown solver tier {tier!r}")
        if self.crash_component is not None and self.crash_group is not None:
            raise ValueError("specify crash_component or crash_group, not both")
        if self.crash_step is not None and self.crash_step < 0:
            raise ValueError(f"crash_step must be >= 0, got {self.crash_step}")

    # -- keyed deterministic draws ----------------------------------------

    def _rng(self, *key: object) -> np.random.Generator:
        return keyed_rng(self.seed, *key)

    def benchmark_fault(
        self, scope: str, nodes: int, attempt: int
    ) -> BenchmarkFault | None:
        """Fault (if any) hitting the gather run at ``nodes``, try ``attempt``."""
        if self.permanent_rate:
            # Attempt-independent: the point itself is dead.
            u = self._rng("bench-permanent", scope, int(nodes)).random()
            if u < self.permanent_rate:
                return BenchmarkFault("permanent", scope, int(nodes), int(attempt))
        if self.fail_rate or self.timeout_rate:
            u = self._rng("bench", scope, int(nodes), int(attempt)).random()
            if u < self.fail_rate:
                return BenchmarkFault("failure", scope, int(nodes), int(attempt))
            if u < self.fail_rate + self.timeout_rate:
                return BenchmarkFault("timeout", scope, int(nodes), int(attempt))
        return None

    def check_benchmark(self, scope: str, nodes: int, attempt: int) -> None:
        """Raise :class:`BenchmarkRunError` when the run is injected to fail."""
        fault = self.benchmark_fault(scope, nodes, attempt)
        if fault is not None:
            telemetry.record_fault(fault.kind, "gather")
            raise BenchmarkRunError(fault)

    def straggler_multiplier(
        self, scope: str, unit: object, nodes: int, attempt: int = 0
    ) -> float:
        """Slow-down factor for one timing (1.0 when the run is clean)."""
        if not self.straggler_rate:
            return 1.0
        r = self._rng("straggler", scope, unit, int(nodes), int(attempt))
        if r.random() < self.straggler_rate:
            telemetry.record_fault("straggler", "gather")
            return float(r.uniform(1.5, self.straggler_scale))
        return 1.0

    # -- solve / execute ----------------------------------------------------

    def solver_fails(self, tier: str) -> bool:
        return tier in self.solver_stall

    @property
    def has_crash(self) -> bool:
        return self.crash_component is not None or self.crash_group is not None

    def describe(self) -> str:
        """One-line run-header echo so degraded results stay reproducible."""
        parts = [f"seed={self.seed}"]
        for name, fmt in (
            ("fail_rate", "fail={:.0%}"),
            ("timeout_rate", "timeout={:.0%}"),
            ("permanent_rate", "permanent={:.0%}"),
            ("straggler_rate", "straggler={:.0%}"),
        ):
            v = getattr(self, name)
            if v:
                parts.append(fmt.format(v))
        if self.straggler_rate:
            parts.append(f"straggler_scale={self.straggler_scale:g}x")
        if self.solver_stall:
            parts.append(f"solver_stall={','.join(self.solver_stall)}")
        if self.crash_component is not None:
            parts.append(
                f"crash={self.crash_component}@{self.crash_fraction:.0%}"
            )
        if self.crash_group is not None:
            parts.append(f"crash=group{self.crash_group}@{self.crash_fraction:.0%}")
        if self.crash_step is not None:
            parts.append(f"crash_step={self.crash_step}")
        return f"FaultPlan({', '.join(parts)})"
