"""Tests for the FMO simulator and the HSLB pipeline on FMO."""

import numpy as np
import pytest

from repro.core.hslb import HSLBOptimizer
from repro.core.spec import Allocation
from repro.fmo.app import FMOApplication
from repro.fmo.gddi import GroupSchedule
from repro.fmo.molecules import protein_like, water_cluster
from repro.fmo.schedulers import hslb_schedule, uniform_static_schedule
from repro.fmo.simulator import FMOSimulator
from repro.minlp.solution import Status
from repro.util.rng import default_rng


@pytest.fixture
def system():
    return protein_like(6, default_rng(2))


@pytest.fixture
def sim(system):
    return FMOSimulator(system)


def test_noise_validation(system):
    with pytest.raises(ValueError):
        FMOSimulator(system, noise=-0.1)


def test_fragment_seconds_jitter(sim, rng):
    a = sim.fragment_seconds(0, 4, rng)
    b = sim.fragment_seconds(0, 4, rng)
    assert a != b
    truth = sim.true_fragment_seconds(0, 4)
    assert abs(a / truth - 1.0) < 0.2


def test_zero_noise_deterministic(system):
    sim = FMOSimulator(system, noise=0.0)
    assert sim.fragment_seconds(0, 4, default_rng(1)) == sim.true_fragment_seconds(0, 4)


def test_execute_group_accounting(sim, system):
    sched = uniform_static_schedule(system, 12, 3)
    run = sim.execute(sched, default_rng(0))
    assert len(run.group_times) == 3
    assert run.makespan == max(run.group_times)
    assert set(run.fragment_times) == set(range(system.n_fragments))
    # Group time equals the sum of its fragments' times.
    for g in range(3):
        expected = sum(run.fragment_times[f] for f in sched.fragments_of(g))
        assert run.group_times[g] == pytest.approx(expected)
    assert run.load_imbalance >= 1.0


def test_execute_validates_schedule(sim, system):
    bad = GroupSchedule((4,), (0,) * (system.n_fragments - 1))
    with pytest.raises(ValueError):
        sim.execute(bad, default_rng(0))


def test_benchmark_suite_shape(sim, system, rng):
    suite = sim.benchmark([1, 2, 4, 8], rng)
    assert len(suite.components) == system.n_fragments
    for comp in suite.components:
        assert len(suite[comp]) == 4
    with pytest.raises(ValueError):
        sim.benchmark([0], rng)


# --- full pipeline ------------------------------------------------------------


def test_hslb_pipeline_on_fmo(system):
    rng = default_rng(8)
    app = FMOApplication(system)
    opt = HSLBOptimizer(app)
    result = opt.run([1, 2, 4, 8, 16, 32], 96, rng)
    assert result.solution.status is Status.OPTIMAL
    assert sum(result.allocation.nodes.values()) <= 96
    # The pipeline's fitted-model prediction should be close to reality.
    assert result.prediction_error < 0.15
    # Executed makespan should beat a uniform split.
    uni = app.simulator.execute(
        uniform_static_schedule(system, 96, system.n_fragments), default_rng(8)
    )
    assert result.actual_total < uni.makespan


def test_pipeline_matches_ground_truth_schedule(system):
    """Fits from clean-ish data should reproduce the ground-truth MINLP."""
    rng = default_rng(8)
    app = FMOApplication(system, noise=0.001)
    result = HSLBOptimizer(app).run([1, 2, 4, 8, 16, 32], 96, rng)
    truth_schedule, truth_sol = hslb_schedule(system, 96)
    assert result.predicted_total == pytest.approx(truth_sol.objective, rel=0.05)
    fitted_sizes = np.array(
        [result.allocation[f"frag{i}"] for i in range(system.n_fragments)]
    )
    truth_sizes = np.array(truth_schedule.group_sizes)
    # Allocations agree up to fit noise.
    assert np.abs(fitted_sizes - truth_sizes).max() <= np.maximum(2, 0.3 * truth_sizes).max()


def test_app_formulate_requires_capacity(system):
    app = FMOApplication(system)
    from repro.fmo.schedulers import fragment_models

    models = {
        f"frag{i}": m for i, m in fragment_models(system).items()
    }
    with pytest.raises(ValueError, match="cannot host"):
        app.formulate(models, system.n_fragments - 1)


def test_schedule_from_allocation(system):
    app = FMOApplication(system)
    alloc = Allocation({f"frag{i}": i + 1 for i in range(system.n_fragments)})
    sched = app.schedule_from_allocation(alloc)
    assert sched.group_sizes == tuple(range(1, system.n_fragments + 1))
    assert sched.assignment == tuple(range(system.n_fragments))


def test_execution_metadata(system):
    app = FMOApplication(system)
    alloc = Allocation({f"frag{i}": 4 for i in range(system.n_fragments)})
    res = app.execute(alloc, default_rng(0))
    assert res.metadata["group_sizes"] == (4,) * system.n_fragments
    assert res.metadata["load_imbalance"] >= 1.0
