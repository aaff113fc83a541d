"""§IV-C prediction experiments (the paper's forward-looking applications).

* P1 — optimal job size: cost-efficient vs shortest-time machine sizes for
  the 1° configuration ("it could be a cost-efficient goal where nodes are
  increased until scaling is reduced to a predefined limit or it could be
  the shortest time to solution");
* P2 — component swap: predicted effect of replacing the ocean model with a
  2x-more-scalable rewrite ("how replacing one component with another will
  affect scaling").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, direct_layout
from repro.core.hslb import HSLBOptimizer
from repro.core.predictor import (
    JobSizeRecommendation,
    ScalingSweep,
    component_swap_effect,
    optimal_job_size,
    sweep_machine_sizes,
)
from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng
from repro.util.tables import format_table

JOB_SIZE_SWEEP = (64, 128, 256, 512, 1024, 2048, 4096)


def _fitted_models(seed: int) -> dict[str, PerformanceModel]:
    rng = default_rng(seed)
    app = CESMApplication(one_degree())
    opt = HSLBOptimizer(app)
    suite = opt.gather(BENCHMARK_CAMPAIGN["1deg"], rng)
    return {k: f.model for k, f in opt.fit(suite, rng).items()}


#: The exact Table I answer of the 1° layout 1 (§III-E's direct scan).
_direct = partial(direct_layout, config=one_degree(), layout=Layout.HYBRID)


@dataclass
class JobSizeResult:
    recommendation: JobSizeRecommendation

    def render(self) -> str:
        return "P1: optimal job size (1-degree, layout 1)\n" + self.recommendation.render()


def run_job_size_prediction(
    *, seed: int = 2014, efficiency_floor: float = 0.5
) -> JobSizeResult:
    models = _fitted_models(seed)
    rec = optimal_job_size(
        models, _direct, JOB_SIZE_SWEEP, efficiency_floor=efficiency_floor
    )
    return JobSizeResult(recommendation=rec)


@dataclass
class ComponentSwapResult:
    baseline: ScalingSweep
    swapped: ScalingSweep
    swapped_component: str

    def improvement_at(self, index: int) -> float:
        return 1.0 - self.swapped.totals[index] / self.baseline.totals[index]

    def render(self) -> str:
        rows = [
            [n, b, s, 100.0 * (1.0 - s / b)]
            for n, b, s in zip(
                self.baseline.node_counts, self.baseline.totals, self.swapped.totals
            )
        ]
        return format_table(
            ["nodes", "baseline s", f"swapped {self.swapped_component} s", "gain %"],
            rows,
            title="P2: predicted effect of a 2x-more-scalable ocean rewrite",
            float_fmt=".1f",
        )


@dataclass
class NewHardwareResult:
    """P3: predicted scaling of the balanced job on a sketched new machine."""

    machine_name: str
    node_counts: tuple[int, ...]
    intrepid_totals: tuple[float, ...]
    new_machine_totals: tuple[float, ...]
    serial_ceiling_shift: float

    def speedups(self) -> list[float]:
        return [
            i / n for i, n in zip(self.intrepid_totals, self.new_machine_totals)
        ]

    def render(self) -> str:
        rows = [
            [n, i, t, s]
            for n, i, t, s in zip(
                self.node_counts,
                self.intrepid_totals,
                self.new_machine_totals,
                self.speedups(),
            )
        ]
        table = format_table(
            ["nodes", "Intrepid s", f"{self.machine_name} s", "speedup"],
            rows,
            title="P3: predicted CESM scaling on new hardware (§IV-C, 'less reliable')",
            float_fmt=".1f",
        )
        return table + (
            f"\nserial-floor ceiling moved only {self.serial_ceiling_shift:.0f}x "
            "(the machine's serial speedup), not the 80x compute headline — "
            "Amdahl guards the exascale what-if."
        )


def run_new_hardware_prediction(*, seed: int = 2014) -> NewHardwareResult:
    """P3: transplant the fitted 1° curves onto the exascale sketch."""
    from repro.cesm.machines import EXASCALE_SKETCH

    models = _fitted_models(seed)
    counts = (128, 256, 512, 1024, 2048)
    base = sweep_machine_sizes(models, _direct, counts)
    new_models = EXASCALE_SKETCH.transform_all(models)
    new = sweep_machine_sizes(new_models, _direct, counts)
    return NewHardwareResult(
        machine_name=EXASCALE_SKETCH.name,
        node_counts=base.node_counts,
        intrepid_totals=base.totals,
        new_machine_totals=new.totals,
        serial_ceiling_shift=EXASCALE_SKETCH.serial_speedup,
    )


def run_component_swap_prediction(*, seed: int = 2014) -> ComponentSwapResult:
    models = _fitted_models(seed)
    ocn = models["ocn"]
    rewrite = PerformanceModel(a=ocn.a / 2.0, b=ocn.b, c=ocn.c, d=ocn.d / 2.0)
    baseline, swapped = component_swap_effect(
        models,
        _direct,
        (128, 256, 512, 1024, 2048),
        replace={"ocn": rewrite},
    )
    return ComponentSwapResult(
        baseline=baseline, swapped=swapped, swapped_component="ocn"
    )
