"""Classic NLP-based branch-and-bound for MINLPs.

Each tree node solves the node's continuous NLP relaxation.  Slower per node
than the LP/NLP scheme in :mod:`repro.minlp.oa`, but it does not require
convexity for *correct feasible* answers (only for proven global optimality):
it is the engine to call when OA refuses a model, and the tests' independent
check on nonconvex ones.  No pipeline tier uses it.
"""

from __future__ import annotations

from repro.minlp.bnb import BranchAndBound
from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.obs import telemetry
from repro.obs.trace import span


def solve_minlp_nlpbb(problem: Problem) -> Solution:
    """Solve ``problem`` by branch-and-bound with NLP relaxations.

    The tree runs under the default :class:`~repro.minlp.bnb.BnBOptions`.
    Every node NLP is one cold, deterministic run.
    """
    with span("minlp.nlpbb", problem=problem.name):
        sol = BranchAndBound(problem, solve_nlp).solve()
        telemetry.record_solve("nlpbb", sol.stats, sol.status.value)
    return sol
