"""The :class:`repro.core.Application` adapter for CESM.

Glues the simulator (gather/execute) to the Table I formulations
(solve) so :class:`repro.core.HSLBOptimizer` can drive the whole pipeline.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cesm.components import COMPONENTS
from repro.cesm.grids import CESMConfiguration
from repro.cesm.layouts import (
    MINOR_HOSTS,
    Layout,
    allocation_from_solution,
    direct_layout,
    formulate_layout,
)
from repro.cesm.simulator import CESMSimulator
from repro.core.builder import AllocationModelBuilder
from repro.core.spec import Allocation, Application, ExecutionResult
from repro.faults.plan import FaultPlan
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.perf.data import BenchmarkSuite
from repro.perf.model import PerformanceModel


class CESMApplication(Application):
    """CESM as seen by HSLB: benchmark, formulate, execute."""

    def __init__(
        self,
        config: CESMConfiguration,
        *,
        layout: Layout = Layout.HYBRID,
        tsync: float | None = None,
        benchmark_runs_per_count: int = 1,
        include_minor_components: bool = False,
        outlier_prob: float = 0.0,
        outlier_scale: float = 3.0,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.config = config
        self.layout = layout
        self.tsync = tsync
        self.benchmark_runs_per_count = int(benchmark_runs_per_count)
        self.include_minor_components = bool(include_minor_components)
        self.fault_plan = faults
        self.simulator = CESMSimulator(
            config,
            layout=layout,
            include_minor=self.include_minor_components,
            outlier_prob=outlier_prob,
            outlier_scale=outlier_scale,
            faults=faults,
        )

    @property
    def component_names(self) -> tuple[str, ...]:
        if self.include_minor_components:
            minors = tuple(
                m for m in MINOR_HOSTS if m in self.config.minor_ground_truth
            )
            return COMPONENTS + minors
        return COMPONENTS

    @property
    def requires_nonconvex_solver(self) -> bool:
        # The exact Tsync coupling (Table I lines 18-19) is nonconvex; only
        # the hybrid layout has it.
        return self.tsync is not None and self.layout is Layout.HYBRID

    def benchmark(
        self,
        node_counts: Sequence[int],
        rng: np.random.Generator,
        *,
        attempt: int = 0,
        probe_extremes: bool = True,
    ) -> BenchmarkSuite:
        return self.simulator.benchmark(
            node_counts,
            rng,
            runs_per_count=self.benchmark_runs_per_count,
            probe_extremes=probe_extremes,
            attempt=attempt,
        )

    def _minor_models(
        self, models: Mapping[str, PerformanceModel]
    ) -> dict[str, PerformanceModel] | None:
        if not self.include_minor_components:
            return None
        return {m: models[m] for m in MINOR_HOSTS if m in models}

    def formulate(
        self, models: Mapping[str, PerformanceModel], total_nodes: int
    ) -> Problem:
        return formulate_layout(
            models,
            total_nodes,
            self.config,
            layout=self.layout,
            tsync=self.tsync,
            minor_models=self._minor_models(models),
        )

    def direct_start(
        self, models: Mapping[str, PerformanceModel], total_nodes: int
    ) -> dict[str, float] | None:
        """:func:`direct_layout`'s optimum as a discrete assignment of
        :meth:`formulate`'s problem; ``None`` when the layout has no feasible
        allocation."""
        found = direct_layout(
            models,
            total_nodes,
            self.config,
            layout=self.layout,
            tsync=self.tsync,
            minor_models=self._minor_models(models),
        )
        if found is None:
            return None
        allocation, _ = found
        start = {}
        for comp, count in allocation.items():
            start[f"n_{comp}"] = float(count)
            allowed = self.config.allowed(comp)
            if allowed is not None:
                start.update(
                    AllocationModelBuilder.run_binaries(comp, allowed, total_nodes, count)
                )
        return start

    def allocation_from_solution(self, solution: Solution) -> Allocation:
        return allocation_from_solution(solution)

    def execute(
        self, allocation: Allocation, rng: np.random.Generator
    ) -> ExecutionResult:
        return self.simulator.execute(allocation, rng)

    def predicted_times(
        self,
        models: Mapping[str, PerformanceModel],
        allocation: Allocation,
    ) -> dict[str, float]:
        out = super().predicted_times(models, allocation)
        if self.include_minor_components:
            for minor, host in MINOR_HOSTS.items():
                if minor in models:
                    out[minor] = float(models[minor].time(allocation[host]))
        return out

    def fallback_allocation(
        self,
        models: Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> Allocation:
        """Last-resort tier: the 'typical setup' proportional split (§II).

        The generic greedy cannot see CESM's layout/admissibility
        constraints, but the simulator's benchmark split is feasible by
        construction — exactly what a production operator falls back to
        when the optimizer is unavailable.
        """
        del models  # the heuristic split is model-free
        return self.simulator.default_split(int(total_nodes))

    def predicted_total(
        self,
        models: Mapping[str, PerformanceModel],
        allocation: Allocation,
    ) -> float:
        from repro.cesm.layouts import layout_total_time

        return float(
            layout_total_time(self.layout, self.predicted_times(models, allocation))
        )
