"""Polynomial-time specialized solvers for single-constraint allocation.

§III-E notes that "certain simple MINLPs, such as single constraint resource
constrained MINLPs with non-increasing objectives, can be solved in
polynomial time with customized solvers [Ibaraki & Katoh]".  This module is
that customized solver for the FMO-style family — one budget row
``sum_j n_j <= N`` over integer ``n_j`` in ``[min_nodes_j, max_nodes_j]``,
each ``T_j(n) = a/n + b n^c + d`` unimodal — under the two §III-D objectives
that compare components: :func:`greedy_minmax_allocation` (the classic heap,
run as one top-B selection) and :func:`maxmin_allocation` (a threshold
search over level sets, for the one objective the heap cannot do and whose
MINLP form is nonconvex).  Both are exact with floors and caps, and checked
against brute force, OA on the same problem and an independent DP
(``tests/core/test_greedy.py``, ``tests/service/test_greedy_rung.py``,
``tests/fmo/test_direct_oracle.py``).  :func:`direct_allocation` picks
between them by objective.  They serve three roles:

* the answer itself wherever the problem *is* this family, selected by
  ``Objective.has_direct_solver``: every min-max and max-min
  ``solve_request`` (a served request is one budget row with box bounds),
  ``hslb_schedule``, the two-phase monomer sizing
  (``hslb_two_phase_schedule``) and the dynlb re-solve
  (``HSLBRebalancer``, with the floors as ``min_nodes``), as well as
  dynlb's step-0 plan and its crash re-plan;
* the last rung of both degradation ladders (the pipeline's
  ``fallback_allocation`` and the service's ``greedy_outcome``, which adds
  the request's node bounds);
* a cross-check of HSLB's general MINLP route where both apply (general
  layouts with sequencing constraints and SOS node sets are beyond their
  reach — that is why the paper needs MINLP at all).  The tests run it one
  way only: OA on the built problem certifies these solvers.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.objectives import Objective
from repro.perf.model import PerformanceModel

_Runs = list[tuple[int, int]]  # disjoint inclusive integer intervals, ascending


def _node_bounds(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    min_nodes: Mapping[str, int] | None,
    max_nodes: Mapping[str, int | None] | None,
) -> tuple[dict[str, int], dict[str, int]]:
    """Validated per-component ``(floors, caps)`` inside ``[1, total_nodes]``."""
    if not models:
        raise ValueError("no components to allocate")
    floors = {name: max(1, (min_nodes or {}).get(name, 1)) for name in models}
    if sum(floors.values()) > total_nodes:
        raise ValueError(
            f"{total_nodes} nodes cannot give {len(models)} components their "
            f"minimum of {sum(floors.values())} in total"
        )
    caps = {}
    for name in models:
        cap = (max_nodes or {}).get(name)
        caps[name] = total_nodes if cap is None else min(total_nodes, cap)
        floors[name] = min(floors[name], caps[name])
    return floors, caps


def _sweet_spot(model: PerformanceModel, n_max: int) -> int:
    """The integer in ``[1, n_max]`` minimizing ``T``: the curve is unimodal
    for every ``c >= 0``, so it is a neighbour of the continuous optimum."""
    below = min(n_max, max(1, int(model.optimal_nodes(n_max=n_max))))
    above = min(n_max, below + 1)
    return above if model.time(above) < model.time(below) else below


def greedy_minmax_allocation(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    *,
    min_nodes: Mapping[str, int] | None = None,
    max_nodes: Mapping[str, int | None] | None = None,
) -> tuple[dict[str, int], float]:
    """Exact min-max allocation by marginal greedy.

    Each component starts at its floor (``min_nodes``, default 1); the
    remaining budget is granted one node at a time to the component with
    the largest current time, ties to the first name.  A component is never
    pushed past its integer sweet spot (adding nodes beyond the curve
    minimum *raises* its time, which can never reduce the max) nor past its
    ``max_nodes``.  Exact by an exchange argument (any optimal solution can
    be permuted into the greedy one without worsening the max), and leximin
    beyond the objective: once the slowest component is capped, the *next*
    slowest keeps being lowered.

    The grants are not made one by one.  Granting node ``n + 1`` is an
    *event* whose key is ``T(n)``; a component's keys only fall until its
    cap, so the greedy grants the ``B`` events with the largest keys (``B``
    the spare budget): ``np.partition`` finds the ``B``-th largest key,
    every component takes its events above it, and the events *at* it go
    out by name, which is the order a max-heap on ``(T, name)`` pops them in.
    A key that rises by float round-off near the sweet spot would be popped
    right after the lower key before it, so each component's keys are
    replaced by their running minimum first; that leaves the grant order
    unchanged.  ``tests/core/test_greedy.py`` keeps the heap as the oracle.

    Returns ``(allocation, makespan)``.
    """
    floors, hard_cap = _node_bounds(models, total_nodes, min_nodes, max_nodes)
    budget = total_nodes - sum(floors.values())
    names = sorted(models)
    # One vectorised evaluation per component over the events it can reach.
    keys = []
    for name in names:
        model, floor = models[name], floors[name]
        cap = min(hard_cap[name], _sweet_spot(model, total_nodes), floor + budget)
        times = model.time(np.arange(floor, max(floor, cap)))
        keys.append(np.minimum.accumulate(times))
    grants = [len(k) for k in keys]
    events = np.concatenate(keys)
    if events.size > budget:  # else every event fits: each component hits its cap
        level = np.partition(events, events.size - budget)[events.size - budget]
        grants = [int(np.count_nonzero(k > level)) for k in keys]
        spare = budget - sum(grants)
        for j, k in enumerate(keys):
            tied = min(spare, int(np.count_nonzero(k == level)))
            grants[j] += tied
            spare -= tied
    alloc = {name: floors[name] for name in models}
    for name, granted in zip(names, grants):
        alloc[name] += granted
    return alloc, max(float(models[n].time(k)) for n, k in alloc.items())


def _true_runs(mask: np.ndarray, first: int) -> _Runs:
    """The runs of true entries of ``mask``, whose index 0 is node ``first``."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]) + first
    return [(int(lo), int(hi) - 1) for lo, hi in zip(edges[::2], edges[1::2])]


def _sum_runs(left: _Runs, right: _Runs, limit: int) -> _Runs:
    """Minkowski sum of two run lists, merged and pruned above ``limit``."""
    merged: list[list[int]] = []
    for lo, hi in sorted((a + c, b + d) for a, b in left for c, d in right):
        if lo > limit:
            break
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, min(hi, limit)) for lo, hi in merged]


def maxmin_allocation(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    *,
    min_nodes: Mapping[str, int] | None = None,
    max_nodes: Mapping[str, int | None] | None = None,
) -> tuple[dict[str, int], float]:
    """Exact max-min allocation of the exactly-spent budget, by level sets.

    "Raise the slowest floor" only means something when the budget must be
    spent (otherwise starving everything wins), so the allocation sums to
    ``min(total_nodes, sum of caps)``.  For a level ``t`` the counts with
    ``T_j(n) >= t`` are a few integer runs read off a table of ``T_j``; the
    budgets the components can spend together are the Minkowski sum of
    their runs; and whether that reaches the budget is monotone in ``t`` —
    a bisection over the tabulated values, not a tree search (the
    parametric equalisation of Altevogt & Linke, hep-lat/9310021).  The
    objective fixes only the floor ``t*``; the tie is broken the way §III-D
    prefers, by the same search run the other way: the smallest ceiling
    ``u`` such that ``t* <= T_j(n_j) <= u`` still spends the budget.

    Returns ``(allocation, floor)``.
    """
    floors, caps = _node_bounds(models, total_nodes, min_nodes, max_nodes)
    names = list(models)
    spend = min(total_nodes, sum(caps.values()))
    tables = [models[n].time(np.arange(floors[n], caps[n] + 1)) for n in names]
    levels = np.unique(np.concatenate(tables))

    def search(keep, *, highest: bool) -> tuple[float, list[_Runs], list[_Runs]]:
        """The extreme level at which the counts ``keep`` retains still spend
        the budget, with each component's runs and the prefix sums there."""
        lo, hi, found = 0, len(levels) - 1, None
        while lo <= hi:
            mid = (lo + hi) // 2
            runs = [
                _true_runs(keep(table, levels[mid]), floors[n])
                for n, table in zip(names, tables)
            ]
            prefix = runs[:1]
            for component in runs[1:]:
                prefix.append(_sum_runs(prefix[-1], component, spend))
            feasible = any(a <= spend <= b for a, b in prefix[-1])
            if feasible:
                found = (float(levels[mid]), runs, prefix)
            if feasible == highest:
                lo = mid + 1
            else:
                hi = mid - 1
        return found

    floor, _, _ = search(lambda table, t: table >= t, highest=True)
    _, runs, prefix = search(
        lambda table, u: (table >= floor) & (table <= u), highest=False
    )
    # Walk the prefixes back from the budget: any count of component j whose
    # remainder the components before it can spend exactly.
    counts, rest = [], spend
    for own, before in zip(runs[:0:-1], prefix[-2::-1]):
        fits = (
            max(a, rest - q) for a, b in own for p, q in before
            if max(a, rest - q) <= min(b, rest - p)
        )
        counts.append(next(fits))
        rest -= counts[-1]
    alloc = dict(zip(names, [rest, *reversed(counts)]))
    return alloc, min(float(models[n].time(k)) for n, k in alloc.items())


def direct_allocation(
    objective: Objective,
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    *,
    min_nodes: Mapping[str, int] | None = None,
    max_nodes: Mapping[str, int | None] | None = None,
) -> tuple[dict[str, int], float]:
    """One budget row answered without a tree: level sets for max-min, the
    min-max heap for everything else.

    Exact wherever ``objective.has_direct_solver``; for min-sum the heap's
    allocation is only a feasible answer (the service's ``greedy`` rung).
    Returns the allocation and the selected solver's value: the makespan
    from the heap, the floor from the level sets.
    """
    allocate = (
        maxmin_allocation if objective is Objective.MAX_MIN
        else greedy_minmax_allocation
    )
    return allocate(models, total_nodes, min_nodes=min_nodes, max_nodes=max_nodes)
