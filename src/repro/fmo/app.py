"""The :class:`repro.core.Application` adapter for FMO.

Components are fragments (``frag0`` ... ``fragK``); the MINLP is the
min-max one-group-per-fragment sizing problem; execution runs the resulting
schedule through the simulator.  That MINLP is one budget row, the problem
:func:`repro.fmo.schedulers.hslb_schedule` answers with the heap; the
pipeline still solves it by OA.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.builder import AllocationModelBuilder
from repro.core.objectives import Objective
from repro.core.spec import Allocation, Application, ExecutionResult
from repro.faults.plan import FaultPlan
from repro.fmo.gddi import GroupSchedule
from repro.fmo.molecules import FragmentedSystem
from repro.fmo.recovery import run_with_crash
from repro.fmo.simulator import FMOSimulator
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.perf.data import BenchmarkSuite
from repro.perf.model import PerformanceModel


class FMOApplication(Application):
    """FMO as seen by HSLB."""

    def __init__(
        self,
        system: FragmentedSystem,
        *,
        noise: float = 0.02,
        faults: FaultPlan | None = None,
    ) -> None:
        self.system = system
        self.fault_plan = faults
        self.simulator = FMOSimulator(system, noise=noise, faults=faults)

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(f"frag{f.index}" for f in self.system.fragments)

    def benchmark(
        self, node_counts: Sequence[int], rng: np.random.Generator
    ) -> BenchmarkSuite:
        return self.simulator.benchmark(node_counts, rng)

    def benchmark_run(
        self,
        node_count: int,
        rng: np.random.Generator,
        *,
        attempt: int = 0,
        probe_extremes: bool = False,
    ) -> BenchmarkSuite:
        del probe_extremes  # FMO benchmarking has no extreme-point probe
        return self.simulator.benchmark([int(node_count)], rng, attempt=attempt)

    def formulate(
        self, models: Mapping[str, PerformanceModel], total_nodes: int
    ) -> Problem:
        if total_nodes < self.system.n_fragments:
            raise ValueError(
                f"{total_nodes} nodes cannot host {self.system.n_fragments} groups"
            )
        b = AllocationModelBuilder(f"fmo-{self.system.name}", total_nodes)
        for name in self.component_names:
            b.add_component(name, models[name])
        b.limit_total_nodes()
        b.set_objective(Objective.MIN_MAX)
        return b.build()

    def allocation_from_solution(self, solution: Solution) -> Allocation:
        return Allocation(
            {
                name: int(round(solution.values[f"n_{name}"]))
                for name in self.component_names
            }
        )

    def schedule_from_allocation(self, allocation: Allocation) -> GroupSchedule:
        """One group per fragment, sized by the allocation."""
        sizes = tuple(allocation[f"frag{i}"] for i in range(self.system.n_fragments))
        return GroupSchedule(
            group_sizes=sizes,
            assignment=tuple(range(self.system.n_fragments)),
            label="hslb-pipeline",
        )

    def execute(
        self, allocation: Allocation, rng: np.random.Generator
    ) -> ExecutionResult:
        schedule = self.schedule_from_allocation(allocation)
        plan = self.fault_plan
        if plan is not None and plan.crash_group is not None:
            outcome = run_with_crash(
                self.simulator,
                schedule,
                crash_group=int(plan.crash_group),
                crash_fraction=plan.crash_fraction,
                rng=rng,
            )
            times = {
                f"frag{i}": outcome.fragment_times[i]
                for i in range(self.system.n_fragments)
            }
            return ExecutionResult(
                component_times=times,
                total_time=outcome.makespan,
                metadata={
                    "group_sizes": schedule.group_sizes,
                    "crash_group": outcome.crash_group,
                    "crash_time": outcome.crash_time,
                    "recovery_strategy": outcome.strategy,
                    "lost_fragments": outcome.lost_fragments,
                    "fault_free_makespan": outcome.fault_free_makespan,
                    "makespan_degradation": outcome.degradation,
                },
            )
        run = self.simulator.execute(schedule, rng)
        times = {
            f"frag{i}": run.fragment_times[i] for i in range(self.system.n_fragments)
        }
        return ExecutionResult(
            component_times=times,
            total_time=run.makespan,
            metadata={
                "load_imbalance": run.load_imbalance,
                "group_sizes": schedule.group_sizes,
            },
        )
