"""The HSLB algorithm: the paper's primary contribution.

The four-step pipeline (§III-F):

1. **Gather** — run the application at several node counts
   (:meth:`HSLBOptimizer.gather`);
2. **Fit** — least-squares fit of each component's performance function
   (:meth:`HSLBOptimizer.fit`);
3. **Solve** — MINLP for the optimal node allocation
   (:meth:`HSLBOptimizer.solve`);
4. **Execute** — run with the optimal allocation
   (:meth:`HSLBOptimizer.execute`).

Application adapters (CESM in :mod:`repro.cesm`, FMO in :mod:`repro.fmo`)
supply the benchmarking, model-building, and execution callbacks.
"""

from repro.core.builder import AllocationModelBuilder, DiscreteNodeSet
from repro.core.greedy import (
    greedy_minmax_allocation,
    maxmin_allocation,
    minsum_allocation,
)
from repro.core.hslb import HSLBOptimizer, HSLBResult
from repro.core.objectives import Objective
from repro.core.predictor import (
    compare_layouts,
    component_swap_effect,
    optimal_job_size,
    sweep_machine_sizes,
)
from repro.core.report import allocation_table, comparison_table
from repro.core.spec import Allocation, Application, ExecutionResult

__all__ = [
    "Allocation",
    "AllocationModelBuilder",
    "Application",
    "DiscreteNodeSet",
    "ExecutionResult",
    "HSLBOptimizer",
    "HSLBResult",
    "Objective",
    "allocation_table",
    "compare_layouts",
    "comparison_table",
    "component_swap_effect",
    "greedy_minmax_allocation",
    "maxmin_allocation",
    "minsum_allocation",
    "optimal_job_size",
    "sweep_machine_sizes",
]
