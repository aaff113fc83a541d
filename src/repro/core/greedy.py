"""Polynomial-time specialized solver for single-constraint min-max allocation.

§III-E notes that "certain simple MINLPs, such as single constraint resource
constrained MINLPs with non-increasing objectives, can be solved in
polynomial time with customized solvers [Ibaraki & Katoh]".  This module is
that customized solver for the FMO-style problem

    min  max_j T_j(n_j)    s.t.  sum_j n_j <= N,  n_j >= 1 integer,

with each ``T_j`` non-increasing in the relevant range.  The classic greedy
— repeatedly grant one node to the currently slowest component — is exact
here (an exchange argument: any optimal solution can be permuted into the
greedy one without worsening the max).

It serves three roles in the library:

* an independent oracle the tests use to certify the MINLP solvers;
* the last rung of both degradation ladders (the pipeline's
  ``fallback_allocation`` and the service's ``greedy_outcome``, which adds
  the request's node bounds) and the rebalancer's starting point;
* a demonstration that HSLB's general MINLP route matches the specialized
  algorithm where both apply (general layouts with sequencing constraints
  and SOS node sets are beyond the greedy's reach — that is why the paper
  needs MINLP at all).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping

from repro.perf.model import PerformanceModel


def greedy_minmax_allocation(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    *,
    min_nodes: Mapping[str, int] | None = None,
    max_nodes: Mapping[str, int | None] | None = None,
    spend_all: bool = False,
) -> tuple[dict[str, int], float]:
    """Min-max allocation by marginal greedy; exact without bounds.

    Each component starts at its floor (``min_nodes``, default 1); the
    remaining budget is granted one node at a time to the component with
    the largest current time.  A component is never pushed past its own
    ``optimal_nodes`` (adding nodes beyond the curve minimum *raises* its
    time, which can never reduce the max) nor past its ``max_nodes``.

    ``spend_all`` is for objectives that need the exact budget: once every
    component sits at its sweet spot, what is left goes to the components
    in name order, each up to its ``max_nodes``.

    Returns ``(allocation, makespan)``.
    """
    if not models:
        raise ValueError("no components to allocate")
    floors = {name: max(1, (min_nodes or {}).get(name, 1)) for name in models}
    if sum(floors.values()) > total_nodes:
        raise ValueError(
            f"{total_nodes} nodes cannot give {len(models)} components their "
            f"minimum of {sum(floors.values())} in total"
        )
    hard_cap = {}
    for name in models:
        cap = (max_nodes or {}).get(name)
        hard_cap[name] = total_nodes if cap is None else min(total_nodes, cap)
    soft_cap = {
        name: min(hard_cap[name], max(1, int(model.optimal_nodes(n_max=total_nodes))))
        for name, model in models.items()
    }
    alloc = {name: min(floors[name], hard_cap[name]) for name in models}
    budget = total_nodes - sum(alloc.values())
    # Max-heap on current time (negated), skipping capped components.
    heap = [(-float(models[name].time(alloc[name])), name) for name in models]
    heapq.heapify(heap)
    while budget > 0 and heap:
        _, name = heapq.heappop(heap)
        if alloc[name] >= soft_cap[name]:
            continue  # capped: granting more nodes would slow it down
        alloc[name] += 1
        budget -= 1
        heapq.heappush(heap, (-float(models[name].time(alloc[name])), name))
    if spend_all:
        for name in sorted(alloc):
            grant = min(budget, hard_cap[name] - alloc[name])
            alloc[name] += grant
            budget -= grant
    makespan = max(float(models[n].time(k)) for n, k in alloc.items())
    return alloc, makespan


def minmax_lower_bound(
    models: Mapping[str, PerformanceModel], total_nodes: int
) -> float:
    """A cheap continuous lower bound on the min-max optimum.

    Relax integrality and the per-component floor of one node: the best
    possible makespan is at least ``max_j T_j`` when every component gets
    its continuous water-filling share.  Computed by bisection on the target
    time ``t``: feasible iff the (continuous) nodes needed to bring every
    component down to ``t`` fit in the budget.
    """
    names = list(models)

    def nodes_needed(t: float) -> float:
        total = 0.0
        for name in names:
            m = models[name]
            # Bisect only the decreasing region [1, n*]; beyond the curve
            # minimum more nodes make things slower, never cheaper.
            n_best = min(m.optimal_nodes(n_max=total_nodes), float(total_nodes))
            if m.time(n_best) > t:
                return float("inf")  # this component can never reach t
            lo, hi = 1.0, n_best
            if m.time(lo) <= t:
                total += lo
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if m.time(mid) > t:
                    lo = mid
                else:
                    hi = mid
            total += hi
        return total

    t_lo = max(
        float(m.time(min(m.optimal_nodes(n_max=total_nodes), float(total_nodes))))
        for m in models.values()
    )
    t_hi = max(float(m.time(1.0)) for m in models.values())
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        if nodes_needed(mid) <= total_nodes:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi
