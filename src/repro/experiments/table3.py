"""Table III reproduction: manual vs HSLB, six blocks.

For each block the runner:

1. builds the resolution's CESM application (constrained or free ocean);
2. executes the paper's *published manual allocation* in the simulator to
   produce the manual columns (for the free-ocean blocks, which have no
   manual column in the paper, the constrained block's manual row is used
   as the comparison baseline, as the paper's §IV-B prose does);
3. runs the full HSLB pipeline (gather -> fit -> solve -> execute);
4. renders our block next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cesm.app import CESMApplication
from repro.cesm.grids import eighth_degree, one_degree
from repro.core.hslb import HSLBOptimizer, HSLBResult
from repro.core.spec import Allocation, ExecutionResult
from repro.experiments.paper_data import (
    BENCHMARK_CAMPAIGN,
    COMPONENT_ORDER,
    TABLE3,
    PaperTable3Block,
)
from repro.util.rng import default_rng
from repro.util.tables import format_table


@dataclass
class Table3Result:
    """Our reproduction of one Table III block, with the paper's numbers."""

    paper: PaperTable3Block
    manual_allocation: Allocation
    manual_execution: ExecutionResult
    hslb: HSLBResult

    @property
    def manual_total(self) -> float:
        return self.manual_execution.total_time

    @property
    def improvement_pct(self) -> float:
        """Actual HSLB improvement over the manual baseline."""
        return 100.0 * (1.0 - self.hslb.actual_total / self.manual_total)

    def render(self) -> str:
        headers = [
            "component",
            "manual nodes",
            "manual s",
            "HSLB nodes",
            "pred s",
            "actual s",
            "paper pred s",
            "paper act s",
        ]
        rows = []
        for comp in COMPONENT_ORDER:
            rows.append(
                [
                    comp,
                    self.manual_allocation[comp],
                    self.manual_execution.component_times[comp],
                    self.hslb.allocation[comp],
                    self.hslb.predicted_times[comp],
                    self.hslb.actual_times[comp],
                    self.paper.hslb_pred_times[comp],
                    self.paper.hslb_actual_times[comp],
                ]
            )
        rows.append(
            [
                "TOTAL",
                "",
                self.manual_total,
                "",
                self.hslb.predicted_total,
                self.hslb.actual_total,
                self.paper.hslb_pred_total,
                self.paper.hslb_actual_total,
            ]
        )
        title = (
            f"Table III [{self.paper.key}]: {self.paper.resolution} @ "
            f"{self.paper.total_nodes} nodes"
            + ("" if self.paper.constrained_ocean else " (unconstrained ocean)")
        )
        return format_table(headers, rows, title=title, float_fmt=".1f")


def config_for(block: PaperTable3Block):
    if block.resolution == "1deg":
        return one_degree()
    return eighth_degree(constrained_ocean=block.constrained_ocean)


def manual_baseline_for(block: PaperTable3Block) -> Allocation:
    """The paper's manual allocation for this block (constrained twin for
    the free-ocean blocks, which Table III leaves blank)."""
    if block.manual_nodes is not None:
        return Allocation(block.manual_nodes)
    twin = TABLE3[block.key.replace("-freeocn", "")]
    return Allocation(twin.manual_nodes)


def run_table3_block(key: str, *, seed: int = 2014) -> Table3Result:
    """Reproduce one Table III block end to end."""
    if key not in TABLE3:
        raise KeyError(f"unknown Table III block {key!r}; have {sorted(TABLE3)}")
    block = TABLE3[key]
    app = CESMApplication(config_for(block))
    rng = default_rng(seed)

    manual_alloc = manual_baseline_for(block)
    manual_exec = app.simulator.execute(manual_alloc, default_rng(seed + 1))

    opt = HSLBOptimizer(app)
    hslb = opt.run(
        BENCHMARK_CAMPAIGN[block.resolution], block.total_nodes, rng
    )
    return Table3Result(
        paper=block,
        manual_allocation=manual_alloc,
        manual_execution=manual_exec,
        hslb=hslb,
    )
