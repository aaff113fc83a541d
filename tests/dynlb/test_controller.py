"""The rebalance controller: gating, windows, determinism, comparisons."""

import pytest

from repro.dynlb.controller import (
    GAIN_FACTOR,
    MIGRATION_STEPS,
    RebalanceController,
    compare_strategies,
)
from repro.dynlb.drift import DriftProfile, DriftSpec
from repro.dynlb.workload import DynamicWorkload
from repro.perf.model import PerformanceModel

_MODELS = {
    "big": PerformanceModel(a=4000.0, d=2.0),
    "mid": PerformanceModel(a=1500.0, d=1.0),
    "small": PerformanceModel(a=500.0, d=0.5),
}


def _drifting_workload(steps=24, rate=2.0, **kw):
    """'big' slows down hard over the run: the frozen plan decays."""
    drift = DriftProfile({"big": DriftSpec("linear", rate=rate)}, steps)
    defaults = dict(total_nodes=48, steps=steps, drift=drift, noise=0.0,
                    imbalance=0.0, seed=11)
    defaults.update(kw)
    return DynamicWorkload("drifty", _MODELS, **defaults)


def test_static_strategy_never_migrates():
    result = RebalanceController(_drifting_workload(), "static").run()
    assert result.strategy == "static"
    assert result.events == []
    assert result.final_allocation == result.initial_allocation
    assert result.migration_seconds == 0.0
    assert len(result.step_makespans) == 24
    assert result.total_seconds == pytest.approx(sum(result.step_makespans))


def test_dynamic_strategy_beats_static_under_drift():
    workload = _drifting_workload()
    static = RebalanceController(workload, "static", interval=6).run()
    dynamic = RebalanceController(workload, "diffusion", interval=6).run()
    assert dynamic.migrations >= 1
    assert dynamic.total_seconds < static.total_seconds
    # The accounting identity: compute + stalls + crash penalty.
    assert dynamic.total_seconds == pytest.approx(
        dynamic.compute_seconds + dynamic.migration_seconds + dynamic.crash_seconds
    )


def test_runs_are_bit_identical_under_a_fixed_seed():
    first = RebalanceController(_drifting_workload(), "diffusion").run()
    second = RebalanceController(_drifting_workload(), "diffusion").run()
    assert first.to_dict() == second.to_dict()
    assert first.step_makespans == second.step_makespans


def test_prohibitive_migration_cost_gates_every_move():
    """Under mild drift every proposal's gain stays below ``GAIN_FACTOR``
    times the migration cost calibrated off step 0: nothing moves."""
    workload = _drifting_workload(rate=1.0)
    result = RebalanceController(workload, "diffusion", interval=4).run()
    assert result.migrations == 0
    assert result.gated >= 1
    for event in result.events:
        assert event.predicted_gain <= GAIN_FACTOR * event.cost
    assert result.migration_seconds == 0.0
    assert result.final_allocation == result.initial_allocation


def test_free_migrations_are_taken_whenever_they_help():
    """Under hard drift every proposal clears the gate, so every one lands."""
    workload = _drifting_workload(rate=8.0)
    result = RebalanceController(workload, "diffusion", interval=6).run()
    assert result.migrations >= 2
    assert result.gated == 0
    for event in result.events:
        assert event.predicted_gain > GAIN_FACTOR * event.cost


def test_migration_window_spans_migration_steps():
    workload = _drifting_workload(rate=4.0)
    result = RebalanceController(workload, "diffusion", interval=6).run()
    applied = [
        e for e in result.events if e.outcome == "applied" and e.reason == "interval"
    ]
    assert applied
    # Cadence decisions are taken at the end of steps 5, 11, ...; the window
    # keeps the old plan running for MIGRATION_STEPS more steps.
    assert all((e.step - MIGRATION_STEPS - 5) % 6 == 0 for e in applied)


def test_migration_cost_is_charged_to_the_total():
    workload = _drifting_workload()
    result = RebalanceController(workload, "diffusion", interval=6).run()
    assert result.migrations >= 1
    applied = [e for e in result.events if e.outcome == "applied"]
    assert all(e.cost > 0 for e in applied)
    assert result.migration_seconds == pytest.approx(sum(e.cost for e in applied))


def test_stale_models_trigger_out_of_band_decisions():
    """A hard step change between decision points trips the staleness path."""
    steps = 40
    drift = DriftProfile({"big": DriftSpec("step", rate=4.0, at=0.25)}, steps)
    workload = DynamicWorkload(
        "steppy", _MODELS, total_nodes=48, steps=steps, drift=drift,
        noise=0.0, imbalance=0.0, seed=3,
    )
    # The cadence never fires on its own.
    result = RebalanceController(workload, "diffusion", interval=1000).run()
    assert result.stale_events >= 1
    assert any(e.reason == "stale" for e in result.events)


def test_compare_strategies_shares_the_same_draws():
    workload = _drifting_workload(steps=12)
    results = compare_strategies(workload, ("static", "diffusion", "sweep"))
    assert set(results) == {"static", "diffusion", "sweep"}
    for name, result in results.items():
        assert result.strategy == name
        assert result.steps == 12
    # Until the first migration lands, every strategy sees identical steps.
    assert results["static"].step_makespans[0] == pytest.approx(
        results["diffusion"].step_makespans[0]
    )


def test_to_dict_round_trips_the_essentials():
    result = RebalanceController(_drifting_workload(steps=8), "sweep").run()
    doc = result.to_dict()
    assert doc["strategy"] == "sweep"
    assert doc["steps"] == 8
    assert doc["total_seconds"] == pytest.approx(result.total_seconds)
    assert set(doc["final_allocation"]) == set(_MODELS)
    assert doc["crash"] is None


def test_config_validation():
    with pytest.raises(ValueError, match="interval"):
        RebalanceController(_drifting_workload(), "diffusion", interval=0)
