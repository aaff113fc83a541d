"""The fault/rebalance interplay: a node crash during a migration window.

The invariant pinned here is the one the controller's recovery path
promises: after a crash — even one landing *inside* an open migration
window — the run continues with an allocation that (a) aborts the
in-flight move, (b) fits entirely within the surviving node budget, and
(c) still hosts every component (the crashed component restarts on nodes
carved out of the survivors, exactly like the PR 1 replan recovery).
"""

import pytest

from repro.dynlb.controller import RebalanceController, compare_strategies
from repro.dynlb.drift import DriftProfile, DriftSpec
from repro.dynlb.workload import DynamicWorkload, fmo_workload
from repro.faults.plan import FaultPlan
from repro.perf.model import PerformanceModel

_MODELS = {
    "big": PerformanceModel(a=4000.0, d=2.0),
    "mid": PerformanceModel(a=1500.0, d=1.0),
    "small": PerformanceModel(a=500.0, d=0.5),
}


def _workload(crash_step, crash_component="mid", steps=20):
    # Drift hard enough that the cadence decision at the end of step 5
    # clears the gate: its window lands at step 6.
    drift = DriftProfile({"big": DriftSpec("linear", rate=4.0)}, steps)
    plan = FaultPlan(seed=1, crash_step=crash_step, crash_component=crash_component)
    return DynamicWorkload(
        "crashy", _MODELS, total_nodes=48, steps=steps, drift=drift,
        noise=0.0, imbalance=0.0, seed=11, faults=plan,
    )


#: The crash one step after the decision step: it preempts the landing.
IN_WINDOW = 6


def test_crash_inside_the_window_aborts_the_in_flight_move():
    # Decision at step 5 opens a window landing at step 6; the crash fires
    # at the top of step 6, before the move lands.
    result = RebalanceController(_workload(crash_step=IN_WINDOW), "diffusion",
                                 interval=6).run()
    assert result.crash is not None
    assert result.crash.step == IN_WINDOW
    assert result.crash.aborted_migration is True
    assert result.aborted == 1
    aborted = [e for e in result.events if e.outcome == "aborted"]
    assert aborted[0].step == IN_WINDOW
    # The aborted target never became the running allocation: the recovery
    # event's `old` is the pre-crash plan, not the in-flight target.
    recovery = [e for e in result.events if e.reason == "crash"]
    assert len(recovery) == 1
    assert recovery[0].outcome == "applied"
    assert recovery[0].old == aborted[0].old


def test_recovery_allocation_is_consistent_with_the_surviving_budget():
    workload = _workload(crash_step=IN_WINDOW)
    result = RebalanceController(workload, "diffusion", interval=6).run()
    survivors = workload.total_nodes - result.crash.lost_nodes
    recovery = [e for e in result.events if e.reason == "crash"][0]
    # (b) nothing is scheduled on the dead nodes...
    assert sum(recovery.new.values()) <= survivors
    assert sum(result.final_allocation.values()) <= survivors
    # (c) ...and the crashed component itself is restarted on survivors.
    assert set(recovery.new) == set(workload.components)
    assert recovery.new["mid"] >= 1
    assert all(n >= 1 for n in result.final_allocation.values())
    # Every post-crash migration stays inside the shrunken budget too.
    for event in result.events:
        if event.outcome == "applied" and event.step > IN_WINDOW:
            assert sum(event.new.values()) <= survivors


def test_crash_outside_the_window_aborts_nothing():
    # The first window lands at step 6 and nothing is decided at step 7,
    # so a crash at 8 finds no pending move.
    result = RebalanceController(_workload(crash_step=8), "diffusion",
                                 interval=6).run()
    assert result.crash is not None
    assert result.crash.aborted_migration is False
    assert result.aborted == 0
    assert result.migrations >= 2  # the step-6 landing plus the forced recovery


def test_crash_penalty_and_forced_move_are_charged():
    result = RebalanceController(_workload(crash_step=IN_WINDOW), "diffusion",
                                 interval=6).run()
    assert result.crash_seconds > 0.0
    assert result.crash_seconds == pytest.approx(result.crash.penalty_seconds)
    assert result.total_seconds == pytest.approx(
        result.compute_seconds + result.migration_seconds + result.crash_seconds
    )


def test_every_strategy_recovers_consistently():
    """Static and MINLP strategies alike must satisfy the invariant."""
    for strategy in ("static", "hslb", "sweep"):
        workload = _workload(crash_step=IN_WINDOW)
        result = RebalanceController(workload, strategy, interval=6).run()
        assert result.crash is not None, strategy
        survivors = workload.total_nodes - result.crash.lost_nodes
        assert sum(result.final_allocation.values()) <= survivors, strategy
        assert set(result.final_allocation) == set(workload.components), strategy


def test_crash_recovery_is_deterministic():
    runs = [
        RebalanceController(_workload(crash_step=IN_WINDOW), "diffusion",
                            interval=6).run().to_dict()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_fmo_crash_scenario_end_to_end():
    """The simulator-backed path: a fragment group dies mid-run."""
    plan = FaultPlan(seed=3, crash_step=9)
    workload = fmo_workload(
        fragments=5, total_nodes=40, steps=18, seed=3, faults=plan
    )
    results = compare_strategies(workload, ("static", "diffusion"), interval=4)
    for name, result in results.items():
        assert result.crash is not None, name
        survivors = workload.total_nodes - result.crash.lost_nodes
        assert sum(result.final_allocation.values()) <= survivors, name
        assert set(result.final_allocation) == set(workload.components), name


# -- floors through the crash: the heap takes them, nothing patches them on ---


def _floored_workload(min_nodes):
    plan = FaultPlan(seed=1, crash_step=4, crash_component="mid")
    return DynamicWorkload(
        "floored", _MODELS, total_nodes=48, steps=12, noise=0.0,
        imbalance=0.0, seed=11, faults=plan, min_nodes=min_nodes,
    )


@pytest.mark.parametrize("strategy", ("static", "diffusion", "sweep", "hslb"))
def test_recovery_fits_the_survivors_when_a_floor_exceeds_the_greedy_count(strategy):
    """The survivors' budget is fully spent (no curve has a sweet spot) and
    the heap alone would give ``small`` 4 nodes: raising it to its floor of
    10 afterwards, as the recovery once did, overspent the machine."""
    workload = _floored_workload({"small": 10})
    result = RebalanceController(workload, strategy, interval=6).run()
    survivors = workload.total_nodes - result.crash.lost_nodes
    recovery = [e for e in result.events if e.reason == "crash"][0]
    assert sum(recovery.new.values()) <= survivors
    assert recovery.new["small"] >= 10
    assert sum(result.final_allocation.values()) <= survivors
    assert result.final_allocation["small"] >= 10


def test_floors_that_no_longer_fit_the_survivors_fail_the_run():
    """44 nodes of floors on a machine that has 34 left: there is no plan,
    and saying so beats running an overspent one."""
    workload = _floored_workload({"big": 20, "mid": 14, "small": 10})
    assert workload.initial_allocation().total() <= 48
    with pytest.raises(ValueError, match="cannot give"):
        RebalanceController(workload, "static").run()
