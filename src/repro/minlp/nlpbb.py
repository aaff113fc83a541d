"""Classic NLP-based branch-and-bound for MINLPs.

Each tree node solves the node's continuous NLP relaxation.  Slower per node
than the LP/NLP scheme in :mod:`repro.minlp.oa`, but it does not require
convexity for *correct feasible* answers (only for proven global optimality),
so it doubles as the fallback when a performance model is fitted without the
convexity restriction (exponent < 1).
"""

from __future__ import annotations

import numpy as np

from repro.minlp.bnb import BnBOptions, BranchAndBound
from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.obs import telemetry
from repro.obs.trace import span


def solve_minlp_nlpbb(
    problem: Problem,
    options: BnBOptions | None = None,
    *,
    multistart: int = 1,
    rng: np.random.Generator | None = None,
    x0: dict[str, float] | None = None,
) -> Solution:
    """Solve ``problem`` by branch-and-bound with NLP relaxations.

    ``multistart > 1`` restarts each node's NLP from extra random points,
    which guards against local minima on nonconvex instances at the price of
    proportionally more NLP solves.  The wall budget is the one ``options``
    carries (the degradation chain in :mod:`repro.core.hslb` shrinks it with
    :meth:`BnBOptions.with_budget`).

    ``x0`` warm-starts the tree: the (possibly partial) point is completed
    into a feasible incumbent before the search (finite primal bound from
    node one) and seeds every node relaxation's NLP solve.
    """
    with span("minlp.nlpbb", problem=problem.name):
        sol = _solve_minlp_nlpbb_impl(
            problem, options, multistart=multistart, rng=rng, x0=x0
        )
        telemetry.record_warm_start(x0 is not None)
        telemetry.record_solve("nlpbb", sol.stats, sol.status.value)
    return sol


def _solve_minlp_nlpbb_impl(
    problem: Problem,
    options: BnBOptions | None,
    *,
    multistart: int,
    rng: np.random.Generator | None,
    x0: dict[str, float] | None,
) -> Solution:
    incumbent: tuple[dict[str, float], float] | None = None
    if x0 is not None:
        from repro.minlp.heuristics import warm_start_incumbent

        warm = warm_start_incumbent(problem, x0)
        if warm.status.is_ok:
            incumbent = (dict(warm.values), float(warm.objective))

    def relax(node_problem: Problem) -> Solution:
        return solve_nlp(node_problem, x0=x0, multistart=multistart, rng=rng)

    engine = BranchAndBound(problem, relax, options, incumbent=incumbent)
    return engine.solve()
