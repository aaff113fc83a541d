"""Tests for the two-phase (monomer SCC + dimer) FMO model."""

import pytest

from repro.fmo.gddi import GroupSchedule
from repro.fmo.molecules import protein_like, water_cluster
from repro.fmo.twophase import (
    TwoPhaseSchedule,
    TwoPhaseSimulator,
    hslb_two_phase_schedule,
    uniform_two_phase_schedule,
)
from repro.util.rng import default_rng


@pytest.fixture
def system():
    return protein_like(6, default_rng(2))


@pytest.fixture
def sim(system):
    return TwoPhaseSimulator(system, noise=0.0)


def test_schedule_validation(system, sim):
    mono = GroupSchedule((4,) * 6, tuple(range(6)))
    with pytest.raises(ValueError, match="length mismatch"):
        TwoPhaseSchedule(mono, (0,), sim.dimer_pairs)
    if sim.dimer_pairs:
        with pytest.raises(ValueError, match="unknown groups"):
            TwoPhaseSchedule(
                mono, (99,) * len(sim.dimer_pairs), sim.dimer_pairs
            )


def test_total_is_sum_of_phases(system, sim):
    sched = uniform_two_phase_schedule(system, 24, 6)
    result = sim.execute(sched, default_rng(0))
    assert result.total == pytest.approx(result.monomer_time + result.dimer_time)
    assert result.monomer_time > 0
    assert result.dimer_time >= 0


def test_monomer_phase_scales_with_scc_iterations(system):
    sim = TwoPhaseSimulator(system, noise=0.0)
    sched = uniform_two_phase_schedule(system, 24, 6)
    result = sim.execute(sched, default_rng(0))
    # Noise-free: monomer phase = iterations x per-iteration makespan.
    per_iter = result.monomer_time / system.scc_iterations
    assert per_iter > 0
    assert result.monomer_time == pytest.approx(
        system.scc_iterations * per_iter
    )


def test_mismatched_dimer_list_rejected(system, sim):
    other = protein_like(6, default_rng(9))
    TwoPhaseSimulator(other, noise=0.0)
    sched = uniform_two_phase_schedule(other, 24, 6)
    if sched.dimer_pairs != sim.dimer_pairs:
        with pytest.raises(ValueError, match="dimer list"):
            sim.execute(sched, default_rng(0))


def test_hslb_two_phase_beats_uniform(system):
    sim = TwoPhaseSimulator(system, noise=0.0)
    N = 96
    hs = hslb_two_phase_schedule(system, N)
    uni = uniform_two_phase_schedule(system, N, system.n_fragments)
    t_hs = sim.execute(hs, default_rng(1)).total
    t_uni = sim.execute(uni, default_rng(1)).total
    assert t_hs < t_uni
    # The barrier amplification means the win exceeds the single-phase one
    # proportionally — at least a solid margin on diverse fragments.
    assert t_hs < 0.8 * t_uni


def test_hslb_two_phase_capacity_check(system):
    with pytest.raises(ValueError, match="cannot host"):
        hslb_two_phase_schedule(system, system.n_fragments - 1)


def test_dimers_follow_lpt_not_all_one_group(system):
    hs = hslb_two_phase_schedule(system, 96)
    if len(hs.dimer_pairs) >= 3:
        assert len(set(hs.dimer_assignment)) > 1


def test_water_cluster_two_phase_runs():
    system = water_cluster(8, default_rng(4))
    sim = TwoPhaseSimulator(system, noise=0.02)
    sched = uniform_two_phase_schedule(system, 16, 8)
    result = sim.execute(sched, default_rng(5))
    assert result.total > 0
    assert result.label.startswith("uniform-two-phase")


def test_noise_reproducibility(system):
    sim = TwoPhaseSimulator(system, noise=0.05)
    sched = uniform_two_phase_schedule(system, 24, 6)
    a = sim.execute(sched, default_rng(7))
    b = sim.execute(sched, default_rng(7))
    assert a.total == b.total
