"""Tests for the MPI-task/OpenMP-thread granularity model."""

import pytest

from repro.cesm.grids import one_degree
from repro.cesm.simulator import CESMSimulator
from repro.cesm.tasking import (
    DEFAULT_PROFILES,
    FULL_NODE_POLICIES,
    TaskingPolicy,
    ThreadingProfile,
    best_tasking,
    tasking_speedup,
)
from repro.util.rng import default_rng


def test_policy_validation():
    TaskingPolicy(1, 4)
    TaskingPolicy(4, 1)
    with pytest.raises(ValueError, match="oversubscribes"):
        TaskingPolicy(4, 2)
    with pytest.raises(ValueError):
        TaskingPolicy(0, 1)


def test_policy_accounting():
    p = TaskingPolicy(2, 2)
    assert p.cores_used == 4
    assert TaskingPolicy(1, 2).cores_used == 2


def test_full_node_policies_cover_four_cores():
    assert all(p.cores_used == 4 for p in FULL_NODE_POLICIES)


def test_profile_validation():
    with pytest.raises(ValueError):
        ThreadingProfile(alpha=0.0)
    with pytest.raises(ValueError):
        ThreadingProfile(alpha=1.5)


def test_perfect_threading_indifferent_between_policies():
    perfect = ThreadingProfile(alpha=1.0)
    throughputs = {p: perfect.throughput(p) for p in FULL_NODE_POLICIES}
    assert len(set(round(v, 9) for v in throughputs.values())) == 1
    assert perfect.time_multiplier(TaskingPolicy(4, 1)) == pytest.approx(1.0)


def test_poor_threading_prefers_mpi_tasks():
    mpi_ish = ThreadingProfile(alpha=0.5)
    assert mpi_ish.best_policy() == TaskingPolicy(4, 1)
    # 4 tasks x 1 thread gives 4 units; default 1x4 gives 4^0.5 = 2 units.
    assert mpi_ish.time_multiplier(TaskingPolicy(4, 1)) == pytest.approx(0.5)


def test_default_profiles_story():
    """CAM threads well, POP prefers ranks — the 2010s folklore encoded."""
    best = best_tasking()
    assert best["ocn"] == TaskingPolicy(4, 1)
    assert best["ice"] == TaskingPolicy(4, 1)
    speedups = tasking_speedup()
    # Atmosphere is nearly policy-indifferent; ocean gains substantially.
    assert speedups["atm"] < 1.2
    assert speedups["ocn"] > 1.5
    assert all(s >= 1.0 for s in speedups.values())


def test_simulator_applies_tasking_multiplier():
    cfg = one_degree()
    default_sim = CESMSimulator(cfg)
    tuned_sim = CESMSimulator(cfg, tasking={"ocn": TaskingPolicy(4, 1)})
    t_default = default_sim.component_time("ocn", 24, default_rng(3))
    t_tuned = tuned_sim.component_time("ocn", 24, default_rng(3))
    expected = DEFAULT_PROFILES["ocn"].time_multiplier(TaskingPolicy(4, 1))
    assert t_tuned / t_default == pytest.approx(expected, rel=1e-9)
    assert t_tuned < t_default
    # Untouched components unaffected.
    a1 = default_sim.component_time("atm", 104, default_rng(4))
    a2 = tuned_sim.component_time("atm", 104, default_rng(4))
    assert a1 == a2


def test_simulator_tasking_validation():
    cfg = one_degree()
    with pytest.raises(KeyError, match="unknown component"):
        CESMSimulator(cfg, tasking={"warp": TaskingPolicy(1, 4)})
    with pytest.raises(TypeError):
        CESMSimulator(cfg, tasking={"ocn": (4, 1)})
