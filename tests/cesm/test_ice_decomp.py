"""Tests for the ML sea-ice decomposition selector (the ref-[10] mini-repro)."""

import numpy as np
import pytest

from repro.cesm.components import one_degree_ground_truth
from repro.cesm.ice_decomp import (
    BLOCK_SIZES,
    DECOMPOSITIONS,
    STRATEGIES,
    Decomposition,
    DecompositionSelector,
    collect_training_data,
    default_decomposition,
    oracle_best,
    sample_ice_time,
    true_multiplier,
)
from repro.util.rng import default_rng

ICE_MODEL = one_degree_ground_truth()["ice"].model
TRAIN_NODES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def test_space_shape():
    assert len(STRATEGIES) == 7  # "seven decomposition strategies"
    assert len(DECOMPOSITIONS) == 7 * len(BLOCK_SIZES)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition("hilbert", 16)
    with pytest.raises(ValueError):
        Decomposition("rake", 7)


def test_true_multiplier_properties():
    for d in DECOMPOSITIONS[:5]:
        for n in (4, 64, 1024):
            m = true_multiplier(d, n)
            assert 1.0 <= m <= 1.5
    # Deterministic.
    d = DECOMPOSITIONS[0]
    assert true_multiplier(d, 100) == true_multiplier(d, 100)
    with pytest.raises(ValueError):
        true_multiplier(d, 0)


def test_arms_cross_over():
    """No single arm dominates at every node count (otherwise no ML needed)."""
    bests = {oracle_best(n) for n in (4, 16, 64, 256, 1024, 4096, 16384)}
    assert len(bests) > 1


def test_default_policy_rule():
    assert default_decomposition(32).block_size == 64
    assert default_decomposition(100).strategy == "cartesian1d"
    assert default_decomposition(10000).block_size == 8
    with pytest.raises(ValueError):
        default_decomposition(0)


def test_sample_ice_time_composition(rng):
    d = DECOMPOSITIONS[3]
    t = sample_ice_time(ICE_MODEL, d, 128, rng, noise=0.0)
    assert t == pytest.approx(ICE_MODEL.time(128) * true_multiplier(d, 128))


def test_collect_training_data_shape(rng):
    samples = collect_training_data(ICE_MODEL, (16, 64), rng, runs_per_arm=2)
    assert len(samples) == 2 * len(DECOMPOSITIONS) * 2
    for s in samples:
        assert s.multiplier > 0.9


def test_selector_validation():
    with pytest.raises(ValueError):
        DecompositionSelector(k=0)
    with pytest.raises(ValueError, match="no training samples"):
        DecompositionSelector().fit([])
    trained_arm = Decomposition("cartesian2d", 16)
    sel = DecompositionSelector().fit(
        collect_training_data(ICE_MODEL, (16,), default_rng(1), arms=[trained_arm])
    )
    assert sel.arms == (trained_arm,)
    with pytest.raises(KeyError, match="no training data"):
        sel.predict(Decomposition("rake", 8), 16)


def test_selector_predicts_multiplier_accurately(rng):
    samples = collect_training_data(ICE_MODEL, TRAIN_NODES, rng, noise=0.01)
    sel = DecompositionSelector(k=3).fit(samples)
    for d in DECOMPOSITIONS[::5]:
        for n in (24, 96, 700):
            assert sel.predict(d, n) == pytest.approx(
                true_multiplier(d, n), abs=0.06
            )


def test_selector_beats_default_policy(rng):
    """The companion paper's payoff: learned decompositions beat defaults."""
    samples = collect_training_data(ICE_MODEL, TRAIN_NODES, rng, noise=0.02)
    sel = DecompositionSelector(k=3).fit(samples)
    probe_nodes = (12, 48, 200, 800, 1500)
    ml_mult = np.array([true_multiplier(sel.best(n), n) for n in probe_nodes])
    default_mult = np.array(
        [true_multiplier(default_decomposition(n), n) for n in probe_nodes]
    )
    oracle_mult = np.array([true_multiplier(oracle_best(n), n) for n in probe_nodes])
    # ML no worse than default on average, near the oracle.
    assert ml_mult.mean() <= default_mult.mean()
    assert ml_mult.mean() <= oracle_mult.mean() + 0.03


def test_selector_reduces_scaling_curve_noise(rng):
    """§IV-A's complaint, fixed: fitting the ice curve from ML-selected
    decompositions yields a cleaner fit than from default-policy runs."""
    samples = collect_training_data(ICE_MODEL, TRAIN_NODES, rng, noise=0.01)
    sel = DecompositionSelector(k=3).fit(samples)
    nodes = np.array([10.0, 30.0, 90.0, 270.0, 810.0, 2430.0])
    rng_a, rng_b = default_rng(5), default_rng(5)
    y_default = np.array(
        [
            sample_ice_time(ICE_MODEL, default_decomposition(int(n)), int(n), rng_a)
            for n in nodes
        ]
    )
    y_ml = np.array(
        [
            sample_ice_time(ICE_MODEL, sel.best(int(n)), int(n), rng_b)
            for n in nodes
        ]
    )
    # Decomposition "noise" is multiplicative, so judge the curves by the
    # scatter of their multipliers (time / clean curve), not absolute RSS.
    base = ICE_MODEL.time(nodes)
    mult_default = y_default / base
    mult_ml = y_ml / base
    assert mult_ml.std() < mult_default.std()
    # And the ML curve is simply faster at every probed size.
    assert np.all(y_ml < y_default)


# --- simulator integration ----------------------------------------------------


def test_simulator_ice_policy_validation():
    from repro.cesm.grids import one_degree
    from repro.cesm.simulator import CESMSimulator

    with pytest.raises(TypeError, match="ice_policy"):
        CESMSimulator(one_degree(), ice_policy="random")


def test_simulator_ml_policy_beats_default_policy():
    """End to end: the learned ice decompositions make the coupled run's ice
    times faster and steadier than the CESM default rule."""
    from repro.cesm.grids import one_degree
    from repro.cesm.simulator import CESMSimulator
    from repro.core.spec import Allocation

    rng = default_rng(12345)
    samples = collect_training_data(ICE_MODEL, TRAIN_NODES, rng, noise=0.02)
    selector = DecompositionSelector(k=3).fit(samples)

    alloc = Allocation({"lnd": 24, "ice": 80, "atm": 104, "ocn": 24})
    sim_default = CESMSimulator(one_degree(), ice_policy="default")
    sim_ml = CESMSimulator(one_degree(), ice_policy=selector)
    times_default = [
        sim_default.execute(alloc, default_rng(s)).component_times["ice"]
        for s in range(8)
    ]
    times_ml = [
        sim_ml.execute(alloc, default_rng(s)).component_times["ice"]
        for s in range(8)
    ]
    assert np.mean(times_ml) < np.mean(times_default)
    # Other components are untouched by the policy.
    a = sim_default.execute(alloc, default_rng(0)).component_times["atm"]
    b = sim_ml.execute(alloc, default_rng(0)).component_times["atm"]
    assert a == b
