"""Two-phase FMO execution: SCC-iterated monomers, then dimers.

The single-phase simulator (:mod:`repro.fmo.simulator`) charges each
fragment its whole per-run work at once.  Real FMO2 is structured:

* **monomer phase** — every self-consistent-charge (SCC) iteration computes
  all monomer SCFs and then synchronizes globally (the fragment charges
  feed each other's embedding potentials).  With static groups the phase
  time is ``scc_iterations x max_g sum_{f in g} t_mono(f, |g|)`` — the
  per-iteration barrier amplifies any imbalance by the iteration count.
* **dimer phase** — after SCC convergence, each nearby pair gets one dimer
  SCF; dimers are independent tasks that can be scheduled separately.

This module models that structure and schedules both phases:

* monomer groups sized by HSLB's min-max over per-iteration monomer models —
  one budget row, answered exactly by the heap of :mod:`repro.core.greedy`;
* dimer tasks dispatched longest-first onto the same groups (the GAMESS
  pattern: the GDDI partition persists across phases).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmo.gddi import GroupSchedule
from repro.fmo.molecules import FragmentedSystem
from repro.fmo.schedulers import uniform_static_schedule
from repro.fmo.simulator import FMOSimulator
from repro.fmo.timing import dimer_model, monomer_model
from repro.core.greedy import greedy_minmax_allocation
from repro.util.rng import default_rng


@dataclass(frozen=True)
class TwoPhaseSchedule:
    """Monomer groups plus a dimer-task assignment onto those groups."""

    monomer: GroupSchedule
    dimer_assignment: tuple[int, ...]  # index into monomer.group_sizes per dimer
    dimer_pairs: tuple[tuple[int, int], ...]
    label: str = "two-phase"

    def __post_init__(self) -> None:
        if len(self.dimer_assignment) != len(self.dimer_pairs):
            raise ValueError("dimer assignment/pairs length mismatch")
        bad = [
            g
            for g in self.dimer_assignment
            if not (0 <= g < self.monomer.n_groups)
        ]
        if bad:
            raise ValueError(f"dimer assignment references unknown groups: {bad}")


@dataclass
class TwoPhaseResult:
    """Wall-clock accounting of one two-phase run."""

    monomer_time: float
    dimer_time: float
    label: str

    @property
    def total(self) -> float:
        return self.monomer_time + self.dimer_time


class TwoPhaseSimulator:
    """Executes two-phase schedules over a fragmented system."""

    def __init__(
        self,
        system: FragmentedSystem,
        *,
        noise: float = 0.02,
    ) -> None:
        self.system = system
        self.noise = float(noise)
        self._monomer = {f.index: monomer_model(f) for f in system.fragments}
        self._pairs = system.dimer_pairs()
        self._dimer = {
            pair: dimer_model(system.fragments[pair[0]], system.fragments[pair[1]])
            for pair in self._pairs
        }

    @property
    def dimer_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def _jitter(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.normal(0.0, self.noise))) if self.noise else 1.0

    def execute(
        self, schedule: TwoPhaseSchedule, rng: np.random.Generator | None = None
    ) -> TwoPhaseResult:
        rng = rng or default_rng()
        schedule.monomer.validate_for(self.system, schedule.monomer.total_nodes)
        if schedule.dimer_pairs != self._pairs:
            raise ValueError("schedule's dimer list does not match the system")
        sizes = schedule.monomer.group_sizes

        # Monomer phase: per-iteration barrier -> iterate the max group sum.
        monomer_total = 0.0
        for _ in range(self.system.scc_iterations):
            group_time = [0.0] * schedule.monomer.n_groups
            for frag, grp in enumerate(schedule.monomer.assignment):
                t = float(self._monomer[frag].time(sizes[grp])) * self._jitter(rng)
                group_time[grp] += t
            monomer_total += max(group_time)

        # Dimer phase: one pass, same groups.
        dimer_time = [0.0] * schedule.monomer.n_groups
        for pair, grp in zip(self._pairs, schedule.dimer_assignment):
            t = float(self._dimer[pair].time(sizes[grp])) * self._jitter(rng)
            dimer_time[grp] += t
        return TwoPhaseResult(
            monomer_time=monomer_total,
            dimer_time=max(dimer_time) if dimer_time else 0.0,
            label=schedule.label,
        )


def _lpt_dimers(
    sim: TwoPhaseSimulator, monomer: GroupSchedule
) -> tuple[int, ...]:
    """Longest-processing-time dispatch of dimer tasks onto the groups."""
    sizes = monomer.group_sizes
    costs = {
        pair: min(float(sim._dimer[pair].time(sizes[g])) for g in range(len(sizes)))
        for pair in sim.dimer_pairs
    }
    order = sorted(sim.dimer_pairs, key=lambda p: costs[p], reverse=True)
    loads = [0.0] * monomer.n_groups
    assignment = {pair: 0 for pair in sim.dimer_pairs}
    for pair in order:
        # Greedy on realized finishing time given each group's size.
        best_g = min(
            range(monomer.n_groups),
            key=lambda g: loads[g] + float(sim._dimer[pair].time(sizes[g])),
        )
        assignment[pair] = best_g
        loads[best_g] += float(sim._dimer[pair].time(sizes[best_g]))
    return tuple(assignment[pair] for pair in sim.dimer_pairs)


def hslb_two_phase_schedule(
    system: FragmentedSystem,
    total_nodes: int,
) -> TwoPhaseSchedule:
    """HSLB for the two-phase structure.

    The monomer phase dominates (SCC-iterated), so group sizes are the
    min-max allocation over *per-iteration monomer* models; dimers then ride
    the same partition via LPT.
    """
    if total_nodes < system.n_fragments:
        raise ValueError(
            f"{total_nodes} nodes cannot host {system.n_fragments} groups"
        )
    sim = TwoPhaseSimulator(system, noise=0.0)
    alloc, _ = greedy_minmax_allocation(
        {f"frag{f.index}": sim._monomer[f.index] for f in system.fragments},
        total_nodes,
    )
    sizes = tuple(alloc[f"frag{f.index}"] for f in system.fragments)
    monomer = GroupSchedule(
        group_sizes=sizes,
        assignment=tuple(range(system.n_fragments)),
        label="hslb-two-phase",
    )
    return TwoPhaseSchedule(
        monomer=monomer,
        dimer_assignment=_lpt_dimers(sim, monomer),
        dimer_pairs=sim.dimer_pairs,
        label="hslb-two-phase",
    )


def uniform_two_phase_schedule(
    system: FragmentedSystem,
    total_nodes: int,
    n_groups: int,
) -> TwoPhaseSchedule:
    """Baseline: uniform monomer groups, round-robin dimers."""
    sim = TwoPhaseSimulator(system, noise=0.0)
    monomer = uniform_static_schedule(system, total_nodes, n_groups)
    assignment = tuple(i % monomer.n_groups for i in range(len(sim.dimer_pairs)))
    return TwoPhaseSchedule(
        monomer=monomer,
        dimer_assignment=assignment,
        dimer_pairs=sim.dimer_pairs,
        label=f"uniform-two-phase-{monomer.n_groups}g",
    )
