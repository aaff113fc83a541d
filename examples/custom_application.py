#!/usr/bin/env python3
"""Bring your own application: HSLB beyond CESM and FMO.

The paper closes with "any coarse-grained application with large tasks of
diverse size can benefit from the present approach".  This example shows
what that takes in this library: subclass :class:`repro.core.Application`
with four methods (benchmark / formulate / allocation_from_solution /
execute) and the pipeline does the rest.

The toy domain here is a three-stage data-analytics pipeline (ingest,
train, report) running stages concurrently on disjoint node groups, with a
dependency: `report` must wait for `train`, so they share a sequential
budget — structurally a miniature of CESM's layout constraints.

Usage:  python examples/custom_application.py
"""

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core import (
    Allocation,
    AllocationModelBuilder,
    Application,
    ExecutionResult,
    HSLBOptimizer,
)
from repro.core.report import allocation_table
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

#: Hidden "machine" truth the pipeline will have to discover by benchmarking.
TRUTH = {
    "ingest": PerformanceModel(a=900.0, d=4.0),
    "train": PerformanceModel(a=4200.0, b=0.02, c=1.0, d=9.0),
    "report": PerformanceModel(a=250.0, d=2.0),
}


class AnalyticsPipeline(Application):
    """ingest || (train -> report): the makespan is
    max(T_ingest, T_train + T_report) and groups share the machine."""

    def __init__(self, noise: float = 0.03) -> None:
        self.noise = noise

    @property
    def component_names(self) -> tuple[str, ...]:
        return ("ingest", "train", "report")

    # -- the machine -----------------------------------------------------

    def _observe(self, stage: str, nodes: int, rng: np.random.Generator) -> float:
        jitter = float(np.exp(rng.normal(0.0, self.noise)))
        return float(TRUTH[stage].time(nodes)) * jitter

    def benchmark(
        self,
        node_counts: Sequence[int],
        rng: np.random.Generator,
        *,
        attempt: int = 0,
        probe_extremes: bool = True,
    ) -> BenchmarkSuite:
        # The gather calls this once per count; this machine never fails a
        # run (``attempt`` numbers retries) and has no bracketing probe.
        del attempt, probe_extremes
        suite = BenchmarkSuite()
        for total in node_counts:
            # A benchmarking run splits the machine 25/60/15.
            split = {
                "ingest": max(1, total // 4),
                "train": max(1, (6 * total) // 10),
                "report": max(1, total // 8),
            }
            for stage, n in split.items():
                suite.add(
                    ComponentBenchmark(
                        stage, [ScalingObservation(n, self._observe(stage, n, rng))]
                    )
                )
        return suite

    # -- the model ---------------------------------------------------------

    def formulate(
        self, models: Mapping[str, PerformanceModel], total_nodes: int
    ) -> Problem:
        b = AllocationModelBuilder("analytics", total_nodes)
        n = {s: b.add_component(s, models[s]) for s in self.component_names}
        m = b.model
        T = m.var("T", lb=0.0, ub=b.time_upper_bound())
        # ingest concurrent with the train->report chain.
        m.add(T >= b.time_expr("ingest"), "span_ingest")
        m.add(T >= b.time_expr("train") + b.time_expr("report"), "span_chain")
        # train and report run sequentially, so they share one group;
        # machine hosts ingest plus the bigger of the two.
        m.add(n["ingest"] + n["train"] <= total_nodes, "cap_train")
        m.add(n["ingest"] + n["report"] <= total_nodes, "cap_report")
        m.minimize(T)
        return b.build()

    def allocation_from_solution(self, solution: Solution) -> Allocation:
        return Allocation(
            {s: round(solution.values[f"n_{s}"]) for s in self.component_names}
        )

    # -- execution -----------------------------------------------------------

    def execute(
        self, allocation: Allocation, rng: np.random.Generator
    ) -> ExecutionResult:
        times = {
            s: self._observe(s, allocation[s], rng) for s in self.component_names
        }
        total = max(times["ingest"], times["train"] + times["report"])
        return ExecutionResult(component_times=times, total_time=total)


def main() -> None:
    app = AnalyticsPipeline()
    result = HSLBOptimizer(app).run(
        benchmark_node_counts=[8, 16, 32, 64, 128],
        total_nodes=64,
        rng=default_rng(7),
    )
    print(allocation_table(result, title="analytics pipeline @ 64 nodes"))
    print()
    print(f"prediction error: {100 * result.prediction_error:.1f}%")
    print("constraint check: ingest+train =",
          result.allocation["ingest"] + result.allocation["train"], "<= 64")


if __name__ == "__main__":
    main()
