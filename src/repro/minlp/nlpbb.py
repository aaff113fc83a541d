"""Classic NLP-based branch-and-bound for MINLPs.

Each tree node solves the node's continuous NLP relaxation.  Slower per node
than the LP/NLP scheme in :mod:`repro.minlp.oa`, but it does not require
convexity for *correct feasible* answers (only for proven global optimality),
so it is the solver for nonconvex models (the exact ``Tsync`` coupling) and
the pipeline's fallback tier after OA.
"""

from __future__ import annotations

import numpy as np

from repro.minlp.bnb import BranchAndBound
from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.obs import telemetry
from repro.obs.trace import span


def solve_minlp_nlpbb(
    problem: Problem,
    *,
    multistart: int = 1,
    rng: np.random.Generator | None = None,
) -> Solution:
    """Solve ``problem`` by branch-and-bound with NLP relaxations.

    ``multistart > 1`` restarts each node's NLP from extra random points,
    which guards against local minima on nonconvex instances at the price of
    proportionally more NLP solves.  The tree runs under the default
    :class:`~repro.minlp.bnb.BnBOptions`.  Every solve starts cold.
    """

    def relax(node_problem: Problem) -> Solution:
        return solve_nlp(node_problem, multistart=multistart, rng=rng)

    with span("minlp.nlpbb", problem=problem.name):
        sol = BranchAndBound(problem, relax).solve()
        telemetry.record_solve("nlpbb", sol.stats, sol.status.value)
    return sol
