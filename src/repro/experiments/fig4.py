"""Figure 4 reproduction: predicted scaling of layouts 1–3 at 1° resolution.

The paper built models for all three layouts but only ran layout 1; Figure 4
plots the *predicted* optimal total time of each layout across machine
sizes, plus the experimental layout-1 points ("layout (1exp)"), reporting
R² = 1.0 between layout-1 prediction and experiment.

The runner predicts the three layouts at each machine size from one shared
set of fitted curves with :func:`repro.core.predictor.compare_layouts` (the
exact layout scan), runs the pipeline's solve and execute on layout 1 for the
experimental series, and computes the same R².
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, direct_layout
from repro.core.hslb import HSLBOptimizer
from repro.core.predictor import compare_layouts
from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
from repro.util.rng import default_rng
from repro.util.tables import format_table

FIG4_NODE_COUNTS = (128, 256, 512, 1024, 2048)


@dataclass
class Fig4Result:
    node_counts: tuple[int, ...]
    predicted: dict[Layout, list[float]]
    experimental_layout1: list[float]

    def r_squared_layout1(self) -> float:
        """R² between predicted and experimental layout-1 series."""
        pred = np.array(self.predicted[Layout.HYBRID])
        exp = np.array(self.experimental_layout1)
        ss_res = float(np.sum((exp - pred) ** 2))
        ss_tot = float(np.sum((exp - exp.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    def render(self) -> str:
        rows = []
        for i, n in enumerate(self.node_counts):
            rows.append(
                [
                    n,
                    self.predicted[Layout.HYBRID][i],
                    self.predicted[Layout.SEQUENTIAL_GROUP][i],
                    self.predicted[Layout.FULLY_SEQUENTIAL][i],
                    self.experimental_layout1[i],
                ]
            )
        table = format_table(
            ["nodes", "layout1 pred", "layout2 pred", "layout3 pred", "layout1 exp"],
            rows,
            title="Figure 4: layout scaling at 1 degree",
            float_fmt=".1f",
        )
        from repro.util.ascii_plot import ascii_plot

        chart = ascii_plot(
            {
                "layout1": (list(self.node_counts), self.predicted[Layout.HYBRID]),
                "layout2": (
                    list(self.node_counts),
                    self.predicted[Layout.SEQUENTIAL_GROUP],
                ),
                "layout3": (
                    list(self.node_counts),
                    self.predicted[Layout.FULLY_SEQUENTIAL],
                ),
                "layout1exp": (list(self.node_counts), self.experimental_layout1),
            },
            log_x=True,
            log_y=True,
            title="layout scaling (log-log)",
            x_label="nodes",
            y_label="seconds",
        )
        return (
            table
            + f"\nR^2(layout1 pred vs exp) = {self.r_squared_layout1():.4f}\n\n"
            + chart
        )


def run_fig4(*, seed: int = 2014) -> Fig4Result:
    rng = default_rng(seed)
    opt = HSLBOptimizer(CESMApplication(one_degree()))
    suite = opt.gather(BENCHMARK_CAMPAIGN["1deg"], rng)
    fits = opt.fit(suite, rng)
    models = {name: fit.model for name, fit in fits.items()}

    sweeps = compare_layouts(
        models,
        {
            layout: partial(direct_layout, config=one_degree(), layout=layout)
            for layout in Layout
        },
        FIG4_NODE_COUNTS,
    )
    experimental = [
        opt.run_from_fits(fits, total, default_rng(seed + total)).actual_total
        for total in FIG4_NODE_COUNTS
    ]
    return Fig4Result(
        node_counts=FIG4_NODE_COUNTS,
        predicted={layout: list(sweep.totals) for layout, sweep in sweeps.items()},
        experimental_layout1=experimental,
    )
