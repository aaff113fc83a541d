"""The streaming timing feed: keyed draws, intra policies, crash events."""

import pytest

from repro.core.spec import Allocation
from repro.dynlb.drift import DriftProfile, DriftSpec
from repro.dynlb.workload import DynamicWorkload, cesm_workload, fmo_workload
from repro.faults.plan import FaultPlan, NodeCrashError
from repro.perf.model import PerformanceModel

_MODELS = {
    "big": PerformanceModel(a=4000.0, d=2.0),
    "mid": PerformanceModel(a=1500.0, d=1.0),
    "small": PerformanceModel(a=500.0, d=0.5),
}


def _workload(**kw):
    defaults = dict(total_nodes=48, steps=20, seed=3)
    defaults.update(kw)
    return DynamicWorkload("toy", _MODELS, **defaults)


def test_draws_are_keyed_not_ordered():
    """Same (component, step) sees the same machine under any allocation."""
    w1 = _workload()
    w2 = _workload()
    a = Allocation({"big": 30, "mid": 12, "small": 6})
    b = Allocation({"big": 10, "mid": 20, "small": 18})
    for step in (0, 7, 19):
        t1 = w1.step_times(step, a)
        t2 = w2.step_times(step, b)
        for c in w1.components:
            # The multiplicative machine state (jitter x imbalance) is
            # identical; only the deterministic T(n) part differs.
            assert t1[c] / _MODELS[c].time(a[c]) == pytest.approx(
                t2[c] / _MODELS[c].time(b[c])
            )


def test_component_time_is_deterministic_across_instances():
    assert _workload().component_time("big", 5, 16) == _workload().component_time(
        "big", 5, 16
    )
    assert _workload(seed=9).component_time("big", 5, 16) != _workload(
        seed=10
    ).component_time("big", 5, 16)


def test_self_policy_trades_imbalance_for_fixed_overhead():
    w = _workload(noise=0.0, imbalance=0.2, self_overhead=0.03)
    drifted = w.drift.multiplier("big", 4) * _MODELS["big"].time(16)
    assert w.component_time("big", 4, 16, policy="self") == pytest.approx(
        drifted * 1.03
    )
    static = w.component_time("big", 4, 16, policy="static")
    assert drifted <= static <= drifted * 1.2


def test_true_model_applies_drift_multiplier():
    """The curve governing a component at a step is its base curve scaled
    by the drift multiplier."""
    drift = DriftProfile({"big": DriftSpec("linear", rate=1.0)}, steps=11)
    w = _workload(steps=11, drift=drift, noise=0.0, imbalance=0.0)
    assert w.drift.multiplier("big", 10) == pytest.approx(2.0)
    assert w.component_time("big", 10, 16) == pytest.approx(
        2.0 * _MODELS["big"].time(16)
    )


def test_initial_allocation_fits_budget_and_floors():
    w = _workload(min_nodes={"small": 4})
    alloc = w.initial_allocation()
    assert alloc.total() <= w.total_nodes
    assert alloc["small"] >= 4
    assert all(alloc[c] >= 1 for c in w.components)
    # The dominant component gets the most nodes.
    assert alloc["big"] > alloc["small"]


def test_crash_event_fires_only_at_crash_step():
    plan = FaultPlan(seed=1, crash_step=7)
    w = _workload(faults=plan)
    alloc = w.initial_allocation()
    assert w.crash_event(6, alloc) is None
    assert w.crash_event(8, alloc) is None
    err = w.crash_event(7, alloc)
    assert isinstance(err, NodeCrashError)
    # No component named: the largest group dies.
    assert err.component == "big"
    assert err.lost_nodes == alloc["big"]


def test_crash_event_targets_named_component():
    plan = FaultPlan(seed=1, crash_step=3, crash_component="mid", crash_fraction=0.25)
    w = _workload(faults=plan)
    err = w.crash_event(3, w.initial_allocation())
    assert err.component == "mid"
    assert err.fraction == 0.25


def test_no_faults_means_no_crash():
    w = _workload()
    assert w.crash_event(0, w.initial_allocation()) is None


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one component"):
        DynamicWorkload("x", {}, total_nodes=4, steps=5)
    with pytest.raises(ValueError, match="steps"):
        _workload(steps=0)
    with pytest.raises(ValueError, match="cannot host"):
        _workload(total_nodes=2)
    with pytest.raises(ValueError, match="unknown intra policy"):
        _workload().component_time("big", 0, 8, policy="guided")
    with pytest.raises(ValueError, match=">= 1 node"):
        _workload().component_time("big", 0, 0)


def test_cesm_builder_wires_ground_truth_components():
    w = cesm_workload(total_nodes=64, steps=10, seed=2)
    assert set(w.components) == {"atm", "ice", "lnd", "ocn"}
    assert w.name == "cesm-1deg"
    # The linear preset drifts the atmosphere (the dominant component) up.
    assert w.drift.spec("atm").rate > 0


def test_fmo_builder_one_component_per_fragment():
    w = fmo_workload(fragments=5, total_nodes=32, steps=10, seed=2)
    assert w.components == tuple(f"frag{i}" for i in range(5))
    assert w.name.startswith("fmo-")


def test_describe_mentions_faults_when_present():
    plan = FaultPlan(seed=1, crash_step=4)
    text = _workload(faults=plan).describe()
    assert "crash_step=4" in text
    assert "toy: 3 components x 20 steps on 48 nodes" in text
