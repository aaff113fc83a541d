"""§IV-C applications: predicting layouts, job sizes, and what-ifs.

Once the fitted models exist, they answer questions beyond "balance this
machine" for free.  The paper lists several (§IV-C and the conclusions);
this module implements them:

* :func:`sweep_machine_sizes` — the optimal total time as a function of
  machine size (the raw material for Figure 4 and for job-size decisions);
* :func:`optimal_job_size` — "the prediction of the optimal nodes to run a
  job.  The definition of optimal depends on the goal; it could be a
  cost-efficient goal where nodes are increased until scaling is reduced to
  a predefined limit or it could be the shortest time to solution";
* :func:`compare_layouts` — "which component layout is more or less
  scalable" (the Figure 4 exercise as an API);
* :func:`component_swap_effect` — "how replacing one component with another
  will affect scaling".

Every question is a sweep of single-budget Table I problems, and §III-E
notes that problems of that kind "can be solved in polynomial time with
customized solvers".  So the predictor drives the application's exact
direct algorithm, not a MINLP: for CESM ``functools.partial(direct_layout,
config=..., layout=...)`` (:func:`repro.cesm.layouts.direct_layout`), for a
plain min-max application
:func:`repro.core.greedy.greedy_minmax_allocation`.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass

from repro.perf.model import PerformanceModel
from repro.util.tables import format_table

#: An exact direct algorithm: ``(models, total_nodes) -> (allocation,
#: objective)``, or ``None`` when no allocation of ``total_nodes`` is
#: feasible.  The predictor reads the objective.
DirectAlgorithm = Callable[
    [Mapping[str, PerformanceModel], int], tuple[object, float] | None
]


@dataclass
class ScalingSweep:
    """Optimal predicted total time across machine sizes."""

    node_counts: tuple[int, ...]
    totals: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.node_counts) != len(self.totals):
            raise ValueError("node_counts/totals length mismatch")
        if len(self.node_counts) < 2:
            raise ValueError("a sweep needs at least two machine sizes")

    def speedup(self) -> tuple[float, ...]:
        return tuple(self.totals[0] / t for t in self.totals)

    def efficiency(self) -> tuple[float, ...]:
        """Parallel efficiency relative to the smallest machine size."""
        n0, t0 = self.node_counts[0], self.totals[0]
        return tuple(
            (t0 * n0) / (t * n) for n, t in zip(self.node_counts, self.totals)
        )

    def render(self, title: str = "scaling sweep") -> str:
        eff = self.efficiency()
        rows = [
            [n, t, s, e]
            for n, t, s, e in zip(
                self.node_counts, self.totals, self.speedup(), eff
            )
        ]
        return format_table(
            ["nodes", "predicted total s", "speedup", "efficiency"],
            rows,
            title=title,
        )


def sweep_machine_sizes(
    models: Mapping[str, PerformanceModel],
    direct: DirectAlgorithm,
    node_counts: Sequence[int],
) -> ScalingSweep:
    """The optimal total at each machine size, from ``direct``."""
    totals = []
    counts = sorted(set(int(n) for n in node_counts))
    for total in counts:
        answer = direct(models, total)
        if answer is None:
            raise ValueError(f"no feasible allocation on {total} nodes")
        totals.append(float(answer[1]))
    return ScalingSweep(node_counts=tuple(counts), totals=tuple(totals))


@dataclass
class JobSizeRecommendation:
    """The §IV-C job-size answer under both definitions of "optimal"."""

    sweep: ScalingSweep
    efficiency_floor: float
    cost_efficient_nodes: int
    cost_efficient_total: float
    shortest_time_nodes: int
    shortest_time_total: float

    def render(self) -> str:
        return "\n".join(
            [
                self.sweep.render("job-size sweep"),
                (
                    f"cost-efficient choice (efficiency >= "
                    f"{self.efficiency_floor:.0%}): "
                    f"{self.cost_efficient_nodes} nodes "
                    f"({self.cost_efficient_total:.1f} s)"
                ),
                (
                    f"shortest-time choice: {self.shortest_time_nodes} nodes "
                    f"({self.shortest_time_total:.1f} s)"
                ),
            ]
        )


def optimal_job_size(
    models: Mapping[str, PerformanceModel],
    direct: DirectAlgorithm,
    node_counts: Sequence[int],
    *,
    efficiency_floor: float = 0.5,
) -> JobSizeRecommendation:
    """Recommend machine sizes for a job from the fitted models.

    ``cost_efficient_nodes`` is the largest size whose parallel efficiency
    (vs the smallest swept size) stays at or above ``efficiency_floor`` —
    "nodes are increased until scaling is reduced to a predefined limit".
    ``shortest_time_nodes`` is the smallest size achieving (within 0.5%) the
    best total in the sweep — adding nodes beyond it buys nothing.
    """
    if not (0.0 < efficiency_floor <= 1.0):
        raise ValueError(f"efficiency_floor must be in (0, 1], got {efficiency_floor}")
    sweep = sweep_machine_sizes(models, direct, node_counts)
    eff = sweep.efficiency()

    cost_idx = 0
    for i, e in enumerate(eff):
        if e >= efficiency_floor:
            cost_idx = i
    best_total = min(sweep.totals)
    fast_idx = next(
        i for i, t in enumerate(sweep.totals) if t <= best_total * 1.005
    )
    return JobSizeRecommendation(
        sweep=sweep,
        efficiency_floor=efficiency_floor,
        cost_efficient_nodes=sweep.node_counts[cost_idx],
        cost_efficient_total=sweep.totals[cost_idx],
        shortest_time_nodes=sweep.node_counts[fast_idx],
        shortest_time_total=sweep.totals[fast_idx],
    )


def compare_layouts(
    models: Mapping[str, PerformanceModel],
    directs: Mapping[Hashable, DirectAlgorithm],
    node_counts: Sequence[int],
) -> dict[Hashable, ScalingSweep]:
    """Sweep several layouts' direct algorithms over the same machine sizes.

    The label whose sweep dominates (lowest totals) is the most scalable
    layout — the Figure 4 question as a reusable API.
    """
    return {
        label: sweep_machine_sizes(models, direct, node_counts)
        for label, direct in directs.items()
    }


def component_swap_effect(
    models: Mapping[str, PerformanceModel],
    direct: DirectAlgorithm,
    node_counts: Sequence[int],
    *,
    replace: Mapping[str, PerformanceModel],
) -> tuple[ScalingSweep, ScalingSweep]:
    """Predict scaling before and after swapping component model(s).

    "How replacing one component with another will affect scaling" — e.g.
    substituting a rewritten ocean model's fitted curve and re-sweeping.
    Returns ``(baseline_sweep, swapped_sweep)``.
    """
    unknown = set(replace) - set(models)
    if unknown:
        raise ValueError(f"cannot replace unknown components {sorted(unknown)}")
    baseline = sweep_machine_sizes(models, direct, node_counts)
    swapped_models = dict(models)
    swapped_models.update(replace)
    swapped = sweep_machine_sizes(swapped_models, direct, node_counts)
    return baseline, swapped
