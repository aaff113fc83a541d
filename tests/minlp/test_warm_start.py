"""Warm starts: certified incumbents, x0 plumbing, and the iteration win.

The rebalancer's warm-started HSLB re-solve rests on three facts
established here:

* a partial ``x0`` is completed into a *feasible* incumbent (never handed
  to the tree uncertified);
* both drivers accept ``x0`` and still reach the same optimum;
* seeding the OA tree with a neighbor's solution can shrink the search.
"""

from __future__ import annotations

import pytest

from repro.minlp import solve
from repro.minlp.heuristics import warm_start_incumbent
from repro.minlp.modeling import Model
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Status


# CESM-flavored T(n) = a/n + b n^c + d curves; the tight epigraph bound
# matters — warm-start completion NLPs start from the bound midpoint, so a
# loose bound buries the seed's head start (the allocation model builder
# always sets T's bound from the single-node worst case).
_CURVES = [(1200.0, 0.5, 1.1, 2.0), (800.0, 0.3, 1.2, 1.0), (300.0, 0.2, 1.0, 0.5)]


def _alloc(budget: int, curves=_CURVES, t_ub: float = 2500.0):
    """Min-max allocation of ``budget`` nodes across the fitted curves."""
    m = Model(f"alloc-{budget}")
    t = m.var("T", 0, t_ub)
    ns = [m.integer_var(f"n{i}", 1, budget) for i in range(len(curves))]
    m.add(sum(ns) <= budget)
    for n, (a, b, c, d) in zip(ns, curves):
        m.add(t >= a / n + b * n**c + d)
    m.minimize(t)
    return m.build()


def test_warm_start_incumbent_completes_partial_point():
    p = _alloc(12)
    sol = warm_start_incumbent(p, {"n0": 6.0, "n1": 4.0, "n2": 2.0})
    assert sol.status.is_ok
    # The completion is certified feasible, including the epigraph var.
    assert p.max_violation(sol.values) <= 1e-6
    # Completion work is accounted, not hidden.
    assert sol.stats.nlp_solves >= 1


def test_warm_start_incumbent_rejects_infeasible_pin():
    p = _alloc(12)
    # 20+20+20 nodes cannot satisfy sum <= 12 once pinned.
    sol = warm_start_incumbent(p, {"n0": 20.0, "n1": 20.0, "n2": 20.0})
    assert sol.status is Status.INFEASIBLE


@pytest.mark.parametrize("solver", [solve_minlp_oa, solve_minlp_nlpbb])
def test_x0_does_not_change_the_optimum(solver):
    p = _alloc(12)
    cold = solver(p)
    warm = solver(p, x0=dict(cold.values))
    assert warm.status is Status.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)


def test_oa_warm_start_shrinks_the_search():
    # Solve a 64-node instance, then seed the neighboring 72-node instance
    # with its solution.
    neighbor = solve_minlp_oa(_alloc(64))
    assert neighbor.status is Status.OPTIMAL
    seed = {k: v for k, v in neighbor.values.items() if k.startswith("n")}
    cold = solve_minlp_oa(_alloc(72))
    warm = solve_minlp_oa(_alloc(72), x0=seed)
    assert warm.status is Status.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
    warm_work = warm.stats.nodes_explored + warm.stats.nlp_solves
    cold_work = cold.stats.nodes_explored + cold.stats.nlp_solves
    assert warm_work < cold_work, (
        f"warm start did not shrink the search: {warm_work} vs {cold_work}"
    )


def test_solve_dispatch_threads_x0():
    p = _alloc(12)
    cold = solve(p)
    for algorithm in ("auto", "oa", "nlpbb"):
        warm = solve(p, algorithm=algorithm, x0=dict(cold.values))
        assert warm.status is Status.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
