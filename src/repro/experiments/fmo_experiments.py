"""FMO experiments honoring the SC 2012 title paper.

* FMO-1 — scheduler comparison (HSLB vs idealized DLB vs uniform static)
  across machine sizes on a few-large-diverse-tasks system, the regime where
  §I argues DLB is inappropriate;
* FMO-2 — the full HSLB pipeline on FMO (gather/fit/solve/execute), checking
  fitted-model predictions against realized makespans;
* FMO-3 — speedup/scalability curve of the HSLB schedule, the "boost
  scalability ... without rewriting the code" framing of §I.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hslb import HSLBOptimizer
from repro.core.spec import Allocation
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.fmo.schedulers import (
    greedy_dynamic_schedule,
    hslb_schedule,
    uniform_static_schedule,
)
from repro.fmo.simulator import FMOSimulator
from repro.util.rng import default_rng
from repro.util.tables import format_table


@dataclass
class FMOComparisonResult:
    """FMO-1: makespans per scheduler per machine size."""

    system_name: str
    node_counts: tuple[int, ...]
    makespans: dict[str, list[float]]  # scheduler label -> per-N makespans

    def render(self) -> str:
        headers = ["nodes"] + list(self.makespans)
        rows = [
            [n] + [self.makespans[k][i] for k in self.makespans]
            for i, n in enumerate(self.node_counts)
        ]
        return format_table(
            headers,
            rows,
            title=f"FMO-1: scheduler makespans on {self.system_name}",
            float_fmt=".1f",
        )

    def hslb_always_best(self, slack: float = 1.02) -> bool:
        hslb = self.makespans["hslb"]
        others = [v for k, v in self.makespans.items() if k != "hslb"]
        return all(
            hslb[i] <= min(o[i] for o in others) * slack
            for i in range(len(self.node_counts))
        )


def run_fmo_comparison(
    *,
    n_fragments: int = 12,
    node_counts: tuple[int, ...] = (64, 128, 256, 512),
    seed: int = 3,
) -> FMOComparisonResult:
    """FMO-1: HSLB vs baselines across machine sizes."""
    system = protein_like(n_fragments, default_rng(seed))
    sim = FMOSimulator(system)
    makespans: dict[str, list[float]] = {"hslb": [], "dlb-best": [], "uniform": []}
    for total in node_counts:
        hs, _ = hslb_schedule(system, total)
        makespans["hslb"].append(sim.execute(hs, default_rng(seed + total)).makespan)
        dlb = min(
            sim.execute(
                greedy_dynamic_schedule(system, total, g), default_rng(seed + total)
            ).makespan
            for g in (2, 3, 4, 6, n_fragments)
        )
        makespans["dlb-best"].append(dlb)
        makespans["uniform"].append(
            sim.execute(
                uniform_static_schedule(system, total, n_fragments),
                default_rng(seed + total),
            ).makespan
        )
    return FMOComparisonResult(
        system_name=system.name, node_counts=node_counts, makespans=makespans
    )


@dataclass
class FMOPipelineResult:
    """FMO-2: the full HSLB pipeline on FMO."""

    allocation: Allocation
    predicted_total: float
    actual_total: float
    min_r_squared: float

    @property
    def prediction_error(self) -> float:
        return abs(self.predicted_total - self.actual_total) / self.actual_total

    def render(self) -> str:
        return "\n".join(
            [
                "FMO-2: HSLB pipeline on FMO",
                f"  group sizes: {tuple(self.allocation.nodes.values())}",
                f"  predicted makespan: {self.predicted_total:.2f} s",
                f"  actual makespan:    {self.actual_total:.2f} s",
                f"  prediction error:   {100 * self.prediction_error:.1f}%",
                f"  worst fit R^2:      {self.min_r_squared:.5f}",
            ]
        )


def run_fmo_pipeline(
    *, n_fragments: int = 8, total_nodes: int = 128, seed: int = 5
) -> FMOPipelineResult:
    system = protein_like(n_fragments, default_rng(seed))
    app = FMOApplication(system)
    result = HSLBOptimizer(app).run(
        [1, 2, 4, 8, 16, 32], total_nodes, default_rng(seed + 1)
    )
    return FMOPipelineResult(
        allocation=result.allocation,
        predicted_total=result.predicted_total,
        actual_total=result.actual_total,
        min_r_squared=min(f.r_squared for f in result.fits.values()),
    )


@dataclass
class FMOSpeedupResult:
    """FMO-3: HSLB-schedule speedup vs machine size."""

    node_counts: tuple[int, ...]
    makespans: list[float]

    def speedups(self) -> list[float]:
        return [self.makespans[0] / m for m in self.makespans]

    def render(self) -> str:
        rows = [
            [n, m, s]
            for n, m, s in zip(self.node_counts, self.makespans, self.speedups())
        ]
        return format_table(
            ["nodes", "makespan s", f"speedup vs {self.node_counts[0]} nodes"],
            rows,
            title="FMO-3: HSLB scalability",
            float_fmt=".2f",
        )

    def monotone(self) -> bool:
        return all(
            self.makespans[i + 1] <= self.makespans[i] * 1.02
            for i in range(len(self.makespans) - 1)
        )


def run_fmo_speedup(
    *,
    n_fragments: int = 12,
    node_counts: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024),
    seed: int = 3,
) -> FMOSpeedupResult:
    system = protein_like(n_fragments, default_rng(seed))
    sim = FMOSimulator(system, noise=0.0)  # noise-free: pure scaling shape
    makespans = []
    for total in node_counts:
        schedule, _ = hslb_schedule(system, total)
        makespans.append(sim.execute(schedule, default_rng(1)).makespan)
    return FMOSpeedupResult(node_counts=node_counts, makespans=makespans)


@dataclass
class FMODiversityResult:
    """FMO-5: HSLB's advantage as a function of task-size diversity."""

    diversities: list[float]
    hslb_makespans: list[float]
    dlb_makespans: list[float]

    def advantages(self) -> list[float]:
        """Fractional makespan saving of HSLB vs idealized DLB."""
        return [
            1.0 - h / d for h, d in zip(self.hslb_makespans, self.dlb_makespans)
        ]

    def render(self) -> str:
        from repro.util.tables import format_table

        rows = [
            [f"{cv:.2f}", h, d, 100.0 * a]
            for cv, h, d, a in zip(
                self.diversities,
                self.hslb_makespans,
                self.dlb_makespans,
                self.advantages(),
            )
        ]
        return format_table(
            ["size diversity (CV)", "HSLB s", "ideal DLB s", "HSLB advantage %"],
            rows,
            title="FMO-5: HSLB advantage vs task-size diversity",
            float_fmt=".1f",
        )


def run_fmo_diversity_sweep(
    *,
    n_fragments: int = 12,
    total_nodes: int = 256,
    seed: int = 3,
    spreads: tuple[tuple[int, int], ...] = (
        (20, 22),   # near-uniform tasks
        (14, 30),
        (10, 42),
        (8, 60),    # the paper's "few large tasks of diverse size"
    ),
) -> FMODiversityResult:
    """FMO-5: sweep fragment-size spread, compare HSLB to idealized DLB.

    §I claims DLB breaks down specifically for "a few large tasks of
    diverse size"; this sweep locates where the advantage turns on.
    """
    diversities, hslb_ms, dlb_ms = [], [], []
    for lo, hi in spreads:
        system = protein_like(
            n_fragments, default_rng(seed), min_atoms=lo, max_atoms=hi
        )
        sim = FMOSimulator(system)
        hs, _ = hslb_schedule(system, total_nodes)
        hslb_t = sim.execute(hs, default_rng(seed + hi)).makespan
        dlb_t = min(
            sim.execute(
                greedy_dynamic_schedule(system, total_nodes, g),
                default_rng(seed + hi),
            ).makespan
            for g in (2, 3, 4, 6, n_fragments)
        )
        diversities.append(system.size_diversity())
        hslb_ms.append(hslb_t)
        dlb_ms.append(dlb_t)
    return FMODiversityResult(
        diversities=diversities, hslb_makespans=hslb_ms, dlb_makespans=dlb_ms
    )


@dataclass
class FMOTwoPhaseResult:
    """FMO-4: two-phase (monomer SCC + dimer) scheduling comparison."""

    node_counts: tuple[int, ...]
    hslb_totals: list[float]
    hslb_monomer: list[float]
    hslb_dimer: list[float]
    uniform_totals: list[float]

    def render(self) -> str:
        from repro.util.tables import format_table

        rows = [
            [n, h, m, d, u]
            for n, h, m, d, u in zip(
                self.node_counts,
                self.hslb_totals,
                self.hslb_monomer,
                self.hslb_dimer,
                self.uniform_totals,
            )
        ]
        return format_table(
            ["nodes", "HSLB total s", "(monomer)", "(dimer)", "uniform total s"],
            rows,
            title="FMO-4: two-phase FMO2 scheduling (SCC monomers + dimers)",
            float_fmt=".1f",
        )

    def hslb_always_better(self) -> bool:
        return all(h < u for h, u in zip(self.hslb_totals, self.uniform_totals))


def run_fmo_two_phase(
    *,
    n_fragments: int = 10,
    node_counts: tuple[int, ...] = (32, 64, 128, 256),
    seed: int = 2,
) -> FMOTwoPhaseResult:
    """FMO-4: HSLB vs uniform under the barrier-per-SCC-iteration semantics."""
    from repro.fmo.twophase import (
        TwoPhaseSimulator,
        hslb_two_phase_schedule,
        uniform_two_phase_schedule,
    )

    system = protein_like(n_fragments, default_rng(seed))
    sim = TwoPhaseSimulator(system)
    hslb_totals, hslb_monomer, hslb_dimer, uniform_totals = [], [], [], []
    for total in node_counts:
        hs = hslb_two_phase_schedule(system, total)
        run = sim.execute(hs, default_rng(seed + total))
        hslb_totals.append(run.total)
        hslb_monomer.append(run.monomer_time)
        hslb_dimer.append(run.dimer_time)
        uni = uniform_two_phase_schedule(system, total, n_fragments)
        uniform_totals.append(sim.execute(uni, default_rng(seed + total)).total)
    return FMOTwoPhaseResult(
        node_counts=node_counts,
        hslb_totals=hslb_totals,
        hslb_monomer=hslb_monomer,
        hslb_dimer=hslb_dimer,
        uniform_totals=uniform_totals,
    )
