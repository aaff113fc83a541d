"""Allocation/application abstractions shared by every HSLB deployment.

An :class:`Application` is what HSLB optimizes: something that can be
benchmarked at a node count (gather), modeled as a MINLP given fitted
performance curves (solve), and executed at a chosen allocation (execute).
The CESM and FMO subpackages provide concrete implementations.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.perf.data import BenchmarkSuite
from repro.perf.model import PerformanceModel


@dataclass(frozen=True)
class Allocation:
    """A node assignment: component name -> node count."""

    nodes: Mapping[str, int]

    def __post_init__(self) -> None:
        clean = {}
        for name, count in self.nodes.items():
            count = int(round(count))
            if count < 1:
                raise ValueError(f"component {name!r} allocated {count} nodes")
            clean[name] = count
        object.__setattr__(self, "nodes", dict(clean))

    def __getitem__(self, component: str) -> int:
        return self.nodes[component]

    def __iter__(self):
        return iter(self.nodes)

    def items(self):
        return self.nodes.items()

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def total(self) -> int:
        """Sum of all component allocations (NOT the machine footprint —
        sequential components share nodes; layouts define the footprint)."""
        return sum(self.nodes.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.nodes.items())
        return f"Allocation({inner})"


@dataclass
class ExecutionResult:
    """Outcome of one (simulated) application run at a fixed allocation."""

    component_times: dict[str, float]
    total_time: float
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_time < 0:
            raise ValueError("total_time must be nonnegative")
        for name, t in self.component_times.items():
            if t < 0:
                raise ValueError(f"negative time for component {name!r}")


class Application(abc.ABC):
    """The contract HSLB needs from an application.

    Implementations own the machine/substrate: for this reproduction both
    CESM and FMO back onto simulators whose observable behaviour (node count
    in, seconds out) is calibrated to the paper's published data.
    """

    #: Optional fault-injection plan (:class:`repro.faults.FaultPlan`).
    #: Applications that support injection set this; the pipeline switches to
    #: its resilient gather/solve/execute paths whenever it is non-None.
    fault_plan = None

    @property
    @abc.abstractmethod
    def component_names(self) -> tuple[str, ...]:
        """Names of the components HSLB balances (e.g. lnd/ice/atm/ocn)."""

    @property
    def requires_nonconvex_solver(self) -> bool:
        """True when :meth:`formulate` emits nonconvex constraints (e.g. the
        Tsync coupling), so OA's linearization cuts would be invalid: the
        pipeline skips OA and answers with :meth:`direct_start` (or, without
        one, :meth:`fallback_allocation`)."""
        return False

    @abc.abstractmethod
    def benchmark(
        self,
        node_counts: Sequence[int],
        rng: np.random.Generator,
        *,
        attempt: int = 0,
        probe_extremes: bool = True,
    ) -> BenchmarkSuite:
        """Step 1 (gather): run at each of ``node_counts`` total nodes and
        record every component's wall-clock time.

        The gather calls it once per count, so a failed run is retried on
        its own: ``attempt`` numbers the retries (fault plans key their
        draws off it) and ``probe_extremes`` marks the campaign's largest
        count, where applications may add extra bracketing probes.
        Implementations may ignore both, and may raise
        :class:`repro.faults.BenchmarkRunError` for an injected (or real)
        failed run."""

    @abc.abstractmethod
    def formulate(
        self,
        models: Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> Problem:
        """Step 3 (solve) model builder: the Table-I MINLP for this app."""

    @abc.abstractmethod
    def allocation_from_solution(self, solution: Solution) -> Allocation:
        """Extract the integer node allocation from a MINLP solution."""

    @abc.abstractmethod
    def execute(
        self,
        allocation: Allocation,
        rng: np.random.Generator,
    ) -> ExecutionResult:
        """Step 4 (execute): run at ``allocation`` and report actual times."""

    def predicted_times(
        self,
        models: Mapping[str, PerformanceModel],
        allocation: Allocation,
    ) -> dict[str, float]:
        """Per-component times the fitted models predict for ``allocation``."""
        return {
            name: float(models[name].time(allocation[name]))
            for name in allocation.components
            if name in models
        }

    def direct_start(
        self,
        models: Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> dict[str, float] | None:
        """An optimal discrete assignment of :meth:`formulate`'s problem,
        from an exact direct algorithm, or ``None`` when there is none.

        The assignment values every discrete variable of the problem (node
        counts and selection binaries).  The pipeline hands it to OA as its
        start and records the gap between its objective and OA's answer as a
        certificate (:attr:`repro.core.hslb.SolverProvenance.direct_gap`);
        when OA is skipped or fails, it is the answer (tier ``"direct"``).
        The default has no direct algorithm.
        """
        del models, total_nodes
        return None

    # -- resilience hooks (defaults suit min-max applications) ---------------

    def fallback_allocation(
        self,
        models: Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> Allocation:
        """Last-resort allocation when OA has failed (or cannot run) and
        there is no :meth:`direct_start`.

        The default is the exact polynomial-time greedy for single-budget
        min-max problems (:mod:`repro.core.greedy`) — proportional in the
        sense that each component's share follows its fitted curve.
        Applications with layout/admissibility constraints the greedy cannot
        see must override this with a heuristic that is always feasible.
        """
        from repro.core.greedy import greedy_minmax_allocation

        alloc, _ = greedy_minmax_allocation(models, int(total_nodes))
        return Allocation(alloc)

    def predicted_total(
        self,
        models: Mapping[str, PerformanceModel],
        allocation: Allocation,
    ) -> float:
        """Objective value the models predict for ``allocation``.

        Used to price fallback allocations that never went through a MINLP
        solve.  The default is the min-max makespan; applications with
        richer objectives (e.g. CESM's layout makespan) override it.
        """
        times = self.predicted_times(models, allocation)
        if not times:
            raise ValueError("no models available to price the allocation")
        return max(times.values())
