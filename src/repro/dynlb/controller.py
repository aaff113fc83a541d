"""The rebalance controller: feed -> refit -> decide -> migrate.

One :class:`RebalanceController` drives one strategy through one
:class:`~repro.dynlb.workload.DynamicWorkload`:

1. **Feed** — run the next synchronous step at the current allocation and
   observe every component's wall time (the step's makespan is the max).
2. **Refit** — fold the observations into the
   :class:`~repro.dynlb.refit.DriftAwareRefitter`.
3. **Decide** — on the decision cadence (every ``interval`` steps) or
   out-of-band when the refitter flags a model stale, ask the strategy
   for a proposal over the refitted curves.
4. **Migrate** — apply the proposal only when the predicted makespan gain
   over the remaining steps clears :data:`GAIN_FACTOR` times the migration
   cost calibrated off the first step.  An accepted migration opens a
   *window*: the old allocation keeps running while the move is in flight
   (:data:`MIGRATION_STEPS`), the stall is charged when it lands — and a
   node crash inside the window aborts the move (the interplay the fault
   tests pin).

Crash recovery reuses the static re-plan path: the heap
(:func:`~repro.core.greedy.greedy_minmax_allocation`) re-solves the
surviving budget exactly, the strategy proposes from that seed, and the
recovery migration is applied unconditionally — consistency, not profit, is
the point.  Everything is deterministic under a fixed seed:
the workload draws are keyed, the controller holds no wall-clock state,
and results carry only simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.greedy import greedy_minmax_allocation
from repro.core.spec import Allocation
from repro.dynlb.migration import MigrationCostModel, MigrationEvent
from repro.dynlb.rebalancer import (
    RebalanceContext,
    Rebalancer,
    StaticRebalancer,
    make_rebalancer,
)
from repro.dynlb.refit import DriftAwareRefitter
from repro.dynlb.workload import DynamicWorkload
from repro.faults.plan import NodeCrashError
from repro.obs import telemetry
from repro.obs.trace import span
from repro.util.rng import default_rng


#: A proposal is applied only when its predicted gain exceeds this multiple of
#: the migration cost.
GAIN_FACTOR = 1.2
#: Steps a migration window spans: the old plan runs until the move lands.
MIGRATION_STEPS = 1


@dataclass(frozen=True)
class CrashRecord:
    """What the injected mid-run crash did to this strategy's run."""

    step: int
    component: str
    lost_nodes: int
    penalty_seconds: float
    aborted_migration: bool


@dataclass
class DynlbRunResult:
    """One strategy's full run: totals, audit trail, final state."""

    workload: str
    strategy: str
    intra_policy: str
    steps: int
    total_seconds: float
    compute_seconds: float
    migration_seconds: float
    crash_seconds: float
    step_makespans: list[float]
    events: list[MigrationEvent]
    refits_scale: int
    refits_full: int
    stale_events: int
    crash: CrashRecord | None
    initial_allocation: dict[str, int]
    final_allocation: dict[str, int]

    @property
    def migrations(self) -> int:
        return sum(1 for e in self.events if e.outcome == "applied")

    @property
    def gated(self) -> int:
        return sum(1 for e in self.events if e.outcome == "gated")

    @property
    def aborted(self) -> int:
        return sum(1 for e in self.events if e.outcome == "aborted")

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "intra_policy": self.intra_policy,
            "steps": int(self.steps),
            "total_seconds": float(self.total_seconds),
            "compute_seconds": float(self.compute_seconds),
            "migration_seconds": float(self.migration_seconds),
            "crash_seconds": float(self.crash_seconds),
            "migrations": int(self.migrations),
            "gated": int(self.gated),
            "aborted": int(self.aborted),
            "refits_scale": int(self.refits_scale),
            "refits_full": int(self.refits_full),
            "stale_events": int(self.stale_events),
            "crash": (
                None
                if self.crash is None
                else {
                    "step": int(self.crash.step),
                    "component": self.crash.component,
                    "lost_nodes": int(self.crash.lost_nodes),
                    "penalty_seconds": float(self.crash.penalty_seconds),
                    "aborted_migration": bool(self.crash.aborted_migration),
                }
            ),
            "initial_allocation": {k: int(v) for k, v in self.initial_allocation.items()},
            "final_allocation": {k: int(v) for k, v in self.final_allocation.items()},
        }


@dataclass
class _Pending:
    target: Allocation
    decided_at: int
    apply_at: int
    gain: float
    cost: float
    reason: str


class RebalanceController:
    """Drive one strategy through one workload, deterministically."""

    def __init__(
        self,
        workload: DynamicWorkload,
        rebalancer: Rebalancer | str,
        *,
        interval: int = 10,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.workload = workload
        self.rebalancer = (
            make_rebalancer(rebalancer) if isinstance(rebalancer, str) else rebalancer
        )
        #: The decision cadence, in steps.
        self.interval = interval

    # -- the loop ----------------------------------------------------------

    def run(
        self, initial: Allocation | None = None, *, seed: int | None = None
    ) -> DynlbRunResult:
        w = self.workload
        strategy = self.rebalancer.name
        policy = self.rebalancer.intra_policy
        rng = default_rng(w.seed if seed is None else seed)
        telemetry.ensure_registered()

        allocation = initial or w.initial_allocation()
        initial_counts = {k: int(v) for k, v in allocation.items()}
        budget = w.total_nodes
        refitter = DriftAwareRefitter(dict(w.models), rng=rng)
        cost_model: MigrationCostModel | None = None
        pending: _Pending | None = None
        crash: CrashRecord | None = None

        compute = migration = crash_penalty = 0.0
        makespans: list[float] = []
        events: list[MigrationEvent] = []
        stale_events = 0

        with span("dynlb.run", strategy=strategy, workload=w.name, steps=int(w.steps)):
            for step in range(w.steps):
                # 0. Fault interplay: a node-group crash preempts everything.
                if crash is None:
                    err = w.crash_event(step, allocation)
                    if err is not None:
                        allocation, crash, lost_cost = self._recover(
                            step, allocation, refitter, err, pending, events,
                            cost_model, makespans,
                        )
                        budget -= err.lost_nodes
                        crash_penalty += crash.penalty_seconds
                        migration += lost_cost
                        pending = None
                        telemetry.record_dynlb_crash(strategy)
                        refitter.clear_stale()

                # 1. A migration window that survived to its land step applies.
                if pending is not None and step >= pending.apply_at:
                    events.append(
                        MigrationEvent(
                            step=step,
                            old={k: int(v) for k, v in allocation.items()},
                            new={k: int(v) for k, v in pending.target.items()},
                            predicted_gain=pending.gain,
                            cost=pending.cost,
                            reason=pending.reason,
                            outcome="applied",
                        )
                    )
                    allocation = pending.target
                    migration += pending.cost
                    telemetry.record_dynlb_migration(strategy, "applied", pending.cost)
                    # Counts just changed: the one moment a curve's shape,
                    # not only its scale, is identifiable online.
                    for name in w.components:
                        refitter.maybe_full_refit(name)
                    pending = None

                # 2. Feed: run the step, observe every component.
                times = w.step_times(step, allocation, policy)
                mk = max(times.values())
                compute += mk
                makespans.append(mk)
                telemetry.record_dynlb_step(strategy, mk)
                for name, seconds in times.items():
                    refitter.observe(step, name, allocation[name], seconds)

                # Calibrate the migration cost off the first observed step —
                # the "calibrated migration cost" the gate is defined against.
                if cost_model is None:
                    cost_model = MigrationCostModel.calibrate(mk)

                # 3. Decide: on cadence, or out-of-band when a model went stale.
                stale = refitter.any_stale()
                if stale:
                    stale_events += 1
                due = (step + 1) % self.interval == 0
                last_step = step >= w.steps - 1
                if (
                    (due or stale)
                    and pending is None
                    and not last_step
                    and not isinstance(self.rebalancer, StaticRebalancer)
                ):
                    # The decision consumes the staleness flag; clearing it
                    # here (not every step) lets the patience counter
                    # accumulate across steps, which is what makes the
                    # out-of-band trigger fire at all.
                    refitter.clear_stale()
                    reason = "stale" if stale else "interval"
                    telemetry.record_dynlb_decision(strategy, reason)
                    models = refitter.models()
                    ctx = RebalanceContext(
                        step=step,
                        models=models,
                        allocation=allocation,
                        total_nodes=budget,
                        min_nodes=dict(w.min_nodes),
                        steps_remaining=w.steps - step - 1,
                    )
                    proposal = self.rebalancer.propose(ctx)
                    if dict(proposal.items()) != dict(allocation.items()):
                        current_pred = max(
                            models[c].time(allocation[c]) for c in w.components
                        )
                        proposed_pred = max(
                            models[c].time(proposal[c]) for c in w.components
                        )
                        # The window still runs the old plan, so the gain only
                        # accrues over the steps after the move lands.
                        effective = max(w.steps - step - 1 - MIGRATION_STEPS, 0)
                        gain = (current_pred - proposed_pred) * effective
                        cost = cost_model.cost(allocation, proposal)
                        if gain > GAIN_FACTOR * cost:
                            pending = _Pending(
                                target=proposal,
                                decided_at=step,
                                apply_at=step + MIGRATION_STEPS,
                                gain=gain,
                                cost=cost,
                                reason=reason,
                            )
                        else:
                            events.append(
                                MigrationEvent(
                                    step=step,
                                    old={k: int(v) for k, v in allocation.items()},
                                    new={k: int(v) for k, v in proposal.items()},
                                    predicted_gain=gain,
                                    cost=cost,
                                    reason=reason,
                                    outcome="gated",
                                )
                            )
                            telemetry.record_dynlb_migration(strategy, "gated", 0.0)

        return DynlbRunResult(
            workload=w.name,
            strategy=strategy,
            intra_policy=policy,
            steps=w.steps,
            total_seconds=compute + migration + crash_penalty,
            compute_seconds=compute,
            migration_seconds=migration,
            crash_seconds=crash_penalty,
            step_makespans=makespans,
            events=events,
            refits_scale=refitter.scale_updates,
            refits_full=refitter.full_refits,
            stale_events=stale_events,
            crash=crash,
            initial_allocation=initial_counts,
            final_allocation={k: int(v) for k, v in allocation.items()},
        )

    # -- crash recovery ----------------------------------------------------

    def _recover(
        self,
        step: int,
        allocation: Allocation,
        refitter: DriftAwareRefitter,
        err: NodeCrashError,
        pending: _Pending | None,
        events: list[MigrationEvent],
        cost_model: MigrationCostModel | None,
        makespans: list[float],
    ) -> tuple[Allocation, CrashRecord, float]:
        """Re-plan on the surviving budget; abort any in-flight migration.

        The crashed component is not dropped — it lost its *nodes*, so it
        is restarted on nodes carved out of the survivors, exactly like
        the PR 1 "replan" recovery.  The recovery allocation must satisfy
        the consistency invariant the fault tests pin: it fits within the
        surviving budget and never references the dead nodes.
        """
        strategy = self.rebalancer.name
        if pending is not None:
            events.append(
                MigrationEvent(
                    step=step,
                    old={k: int(v) for k, v in allocation.items()},
                    new={k: int(v) for k, v in pending.target.items()},
                    predicted_gain=pending.gain,
                    cost=pending.cost,
                    reason=pending.reason,
                    outcome="aborted",
                )
            )
            telemetry.record_dynlb_migration(strategy, "aborted", 0.0)
        survivors = self.workload.total_nodes - err.lost_nodes
        models = refitter.models()
        # Exact greedy re-plan on the survivors seeds (or *is*) the recovery.
        seed_counts, _ = greedy_minmax_allocation(
            models, survivors, min_nodes=self.workload.min_nodes
        )
        seed_alloc = Allocation(seed_counts)
        if isinstance(self.rebalancer, StaticRebalancer):
            recovered = seed_alloc
        else:
            ctx = RebalanceContext(
                step=step,
                models=models,
                allocation=seed_alloc,
                total_nodes=survivors,
                min_nodes=dict(self.workload.min_nodes),
                steps_remaining=self.workload.steps - step,
            )
            recovered = self.rebalancer.propose(ctx)
            if recovered.total() > survivors:
                recovered = seed_alloc
        # Lost work: the crash burns a fraction of the step it interrupts.
        reference = makespans[-1] if makespans else max(
            models[c].time(allocation[c]) for c in self.workload.components
        )
        penalty = err.fraction * reference
        # The forced move still stalls the run; it is charged, not gated.
        old_counts = {k: int(v) for k, v in allocation.items()}
        old_counts[err.component] = 0  # the dead group's nodes are gone
        cost = (cost_model or MigrationCostModel()).cost(old_counts, recovered)
        events.append(
            MigrationEvent(
                step=step,
                old={k: int(v) for k, v in allocation.items()},
                new={k: int(v) for k, v in recovered.items()},
                predicted_gain=0.0,
                cost=cost,
                reason="crash",
                outcome="applied",
            )
        )
        telemetry.record_dynlb_migration(strategy, "crash", cost)
        record = CrashRecord(
            step=step,
            component=err.component,
            lost_nodes=err.lost_nodes,
            penalty_seconds=penalty,
            aborted_migration=pending is not None,
        )
        return recovered, record, cost


def compare_strategies(
    workload: DynamicWorkload,
    strategies: tuple[str, ...] = ("static", "hslb", "diffusion", "sweep", "two-level"),
    *,
    interval: int = 10,
    seed: int | None = None,
) -> dict[str, DynlbRunResult]:
    """Run every strategy over the *same* workload draws and collect results.

    The workload's keyed randomness makes this a controlled experiment:
    each strategy faces bit-identical drift, noise, and faults, so
    makespan deltas are attributable to decisions alone.
    """
    results: dict[str, DynlbRunResult] = {}
    for name in strategies:
        controller = RebalanceController(
            workload, make_rebalancer(name), interval=interval
        )
        results[name] = controller.run(seed=seed)
    return results
