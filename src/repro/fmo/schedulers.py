"""Fragment-to-group schedulers: HSLB and the baselines it is compared to.

* :func:`hslb_schedule` — the paper's algorithm: one group per fragment,
  sized globally (min-max over ``T_i(n_i)`` with ``sum n_i <= N``).  That
  is one budget row, which §III-E says "can be solved in polynomial time
  with customized solvers": every objective is answered exactly by
  :func:`repro.core.greedy.direct_allocation` (the heap, the level sets,
  marginal gain).
* :func:`uniform_static_schedule` — naive SLB: equal groups, fragments dealt
  round-robin with no regard for size.
* :func:`greedy_dynamic_schedule` — idealized DLB: equal groups, fragments
  dispatched longest-first to the earliest-available group with *perfect*
  knowledge of task lengths (an upper bound on what real work-stealing can
  achieve).  With fewer tasks than would fill the groups' nodes, this is the
  regime where the paper argues DLB loses to HSLB.
"""

from __future__ import annotations

import numpy as np

from repro.core.greedy import direct_allocation
from repro.core.objectives import Objective
from repro.fmo.gddi import GroupSchedule, even_group_sizes
from repro.fmo.molecules import FragmentedSystem
from repro.fmo.timing import fragment_models
from repro.minlp.solution import Solution, Status


def hslb_schedule(
    system: FragmentedSystem,
    total_nodes: int,
    *,
    objective: Objective = Objective.MIN_MAX,
) -> tuple[GroupSchedule, Solution]:
    """HSLB's sizing: one group per fragment, sizes chosen globally.

    The curves are the analytic ground truth; the full pipeline path
    (benchmark, then fit) goes through :class:`repro.fmo.app.FMOApplication`.
    Returns the schedule and the solution (prediction = objective); a
    direct answer explores no tree, so its ``stats`` are zero.
    """
    if total_nodes < system.n_fragments:
        raise ValueError(
            f"{total_nodes} nodes cannot host {system.n_fragments} one-fragment groups"
        )
    models = {f"frag{i}": m for i, m in fragment_models(system).items()}
    alloc, value = direct_allocation(objective, models, total_nodes)
    values = {f"n_{name}": float(count) for name, count in alloc.items()}
    sol = Solution(Status.OPTIMAL, values=values, objective=value)
    sizes = tuple(alloc[f"frag{f.index}"] for f in system.fragments)
    schedule = GroupSchedule(
        group_sizes=sizes,
        assignment=tuple(range(system.n_fragments)),
        label=f"hslb-{objective.value}",
    )
    return schedule, sol


def uniform_static_schedule(
    system: FragmentedSystem, total_nodes: int, n_groups: int
) -> GroupSchedule:
    """Equal group sizes; fragments dealt round-robin by index."""
    n_groups = min(n_groups, system.n_fragments)
    sizes = even_group_sizes(total_nodes, n_groups)
    assignment = tuple(i % n_groups for i in range(system.n_fragments))
    return GroupSchedule(sizes, assignment, label=f"uniform-{n_groups}g")


def greedy_dynamic_schedule(
    system: FragmentedSystem,
    total_nodes: int,
    n_groups: int,
) -> GroupSchedule:
    """Idealized DLB: LPT dispatch onto equal groups.

    Uses the true single-group-size cost of each fragment, so it represents
    dynamic balancing with perfect foresight — stronger than any real
    work-stealing runtime.
    """
    n_groups = min(n_groups, system.n_fragments)
    sizes = even_group_sizes(total_nodes, n_groups)
    models = fragment_models(system)
    # Cost of each fragment on its (equal-sized) group.
    costs = {
        f.index: float(models[f.index].time(sizes[0])) for f in system.fragments
    }
    order = sorted(costs, key=costs.get, reverse=True)
    loads = [0.0] * n_groups
    assignment = [0] * system.n_fragments
    for frag in order:
        grp = int(np.argmin(loads))
        assignment[frag] = grp
        loads[grp] += costs[frag]
    return GroupSchedule(sizes, tuple(assignment), label=f"dlb-{n_groups}g")
