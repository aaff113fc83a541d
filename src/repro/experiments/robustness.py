"""Robustness experiments: how fragile is HSLB to bad benchmark data?

§IV: "The weakest part of the HSLB algorithm, in our opinion, is obtaining
the actual performance data for fitting."  Two experiments quantify that:

* R1 — noise sweep: gather-campaign noise from 0 to 20%, measuring how far
  the resulting allocation's *true* makespan drifts from the noise-free
  optimum (the metric that matters: a noisy fit is harmless if the chosen
  allocation is still near-optimal);
* R2 — outlier injection with plain vs robust (Huber) fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cesm.app import CESMApplication
from repro.cesm.components import GroundTruthComponent
from repro.cesm.grids import CESMConfiguration, one_degree
from repro.cesm.layouts import Layout, layout_total_time
from repro.core.hslb import HSLBOptimizer
from repro.core.spec import Allocation
from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
from repro.util.rng import default_rng
from repro.util.tables import format_table


def _with_noise(config: CESMConfiguration, noise: float) -> CESMConfiguration:
    scaled = {
        name: GroundTruthComponent(
            name=gt.name,
            model=gt.model,
            noise=noise,
            decomposition_sensitivity=gt.decomposition_sensitivity,
            sweet_spots=gt.sweet_spots,
        )
        for name, gt in config.ground_truth.items()
    }
    return replace(config, ground_truth=scaled)


def _true_makespan(config: CESMConfiguration, allocation: Allocation) -> float:
    """Noise-free layout-1 makespan of an allocation (the quality oracle)."""
    times = {
        comp: config.ground_truth[comp].true_time(allocation[comp])
        for comp in ("lnd", "ice", "atm", "ocn")
    }
    return layout_total_time(Layout.HYBRID, times)


@dataclass
class NoiseSweepResult:
    """R1: allocation quality vs gather noise."""

    noise_levels: tuple[float, ...]
    true_makespans: list[float]
    reference_makespan: float  # noise-free-gather allocation's true makespan

    def regret(self) -> list[float]:
        """Fractional excess true makespan vs the noise-free reference."""
        return [
            t / self.reference_makespan - 1.0 for t in self.true_makespans
        ]

    def render(self) -> str:
        rows = [
            [f"{n:.0%}", t, 100.0 * r]
            for n, t, r in zip(self.noise_levels, self.true_makespans, self.regret())
        ]
        table = format_table(
            ["gather noise", "true makespan s", "regret %"],
            rows,
            title="R1: allocation quality vs benchmark noise (1-degree, 128 nodes)",
        )
        return table + f"\nnoise-free reference: {self.reference_makespan:.1f} s"


def run_noise_sweep(
    *,
    total_nodes: int = 128,
    noise_levels: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20),
    seed: int = 2014,
) -> NoiseSweepResult:
    """R1: sweep the gather campaign's noise level."""
    makespans = []
    reference = None
    for noise in noise_levels:
        config = _with_noise(one_degree(), noise)
        app = CESMApplication(config)
        result = HSLBOptimizer(app).run(
            BENCHMARK_CAMPAIGN["1deg"], total_nodes, default_rng(seed), execute=False
        )
        true_time = _true_makespan(config, result.allocation)
        makespans.append(true_time)
        if noise == 0.0:
            reference = true_time
    if reference is None:
        # No zero-noise level swept: use the best observed as reference.
        reference = min(makespans)
    return NoiseSweepResult(
        noise_levels=noise_levels,
        true_makespans=makespans,
        reference_makespan=reference,
    )


@dataclass
class OutlierRobustnessResult:
    """R2: plain vs Huber fitting under outlier contamination."""

    plain_regret: float
    huber_regret: float
    plain_prediction_error: float
    huber_prediction_error: float

    def render(self) -> str:
        rows = [
            ["least squares", 100 * self.plain_regret, 100 * self.plain_prediction_error],
            ["huber", 100 * self.huber_regret, 100 * self.huber_prediction_error],
        ]
        return format_table(
            ["fit loss", "allocation regret %", "fit error % @ probe"],
            rows,
            title="R2: outlier contamination, plain vs robust fitting",
        )


def run_outlier_robustness(
    *,
    total_nodes: int = 128,
    outlier_prob: float = 0.18,
    seed: int = 31,
) -> OutlierRobustnessResult:
    """R2: contaminate the gather campaign; compare fit losses."""
    config = one_degree()
    reference = None
    stats = {}
    for loss in ("linear", "huber"):
        app = CESMApplication(
            config,
            outlier_prob=outlier_prob,
            outlier_scale=4.0,
            benchmark_runs_per_count=2,
        )
        opt = HSLBOptimizer(app, fit_loss=loss)
        rng = default_rng(seed)
        suite = opt.gather(BENCHMARK_CAMPAIGN["1deg"], rng)
        fits = opt.fit(suite, rng)
        allocation, _ = opt.solve(fits, total_nodes)
        true_time = _true_makespan(config, allocation)
        fit_errors = []
        for comp, fit in fits.items():
            truth = config.ground_truth[comp].true_time(100)
            fit_errors.append(abs(float(fit.model.time(100)) - truth) / truth)
        stats[loss] = (true_time, float(np.mean(fit_errors)))
    # Noise-free reference optimum for regret.
    clean_app = CESMApplication(_with_noise(config, 0.0))
    clean = HSLBOptimizer(clean_app).run(
        BENCHMARK_CAMPAIGN["1deg"], total_nodes, default_rng(seed), execute=False
    )
    reference = _true_makespan(config, clean.allocation)
    return OutlierRobustnessResult(
        plain_regret=stats["linear"][0] / reference - 1.0,
        huber_regret=stats["huber"][0] / reference - 1.0,
        plain_prediction_error=stats["linear"][1],
        huber_prediction_error=stats["huber"][1],
    )
