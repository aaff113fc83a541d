"""MINLP toolkit: modeling, LP/NLP layers, and branch-and-bound solvers.

This subpackage is the library's stand-in for the AMPL + MINOTAUR stack the
paper uses: :mod:`repro.minlp.modeling` plays AMPL (declarative models with
automatic derivatives), and the solver modules play MINOTAUR's LP/NLP-based
branch-and-bound (§III-E).

Typical use::

    from repro.minlp import Model, solve

    m = Model("demo")
    x = m.integer_var("x", 1, 10)
    t = m.var("t", lb=0.0)
    m.add(t >= 100.0 / x + 2.0 * x)
    m.minimize(t)
    solution = solve(m.build())
"""

from __future__ import annotations

from repro.minlp.ampl_export import problem_to_ampl
from repro.minlp.bnb import BnBOptions, BranchAndBound
from repro.minlp.brute import solve_brute_force
from repro.minlp.cutpool import OACutPool
from repro.minlp.expr import (
    Constant,
    Expr,
    Relation,
    VarRef,
    exp,
    linearize,
    log,
    sqrt,
    sum_exprs,
)
from repro.minlp.heuristics import (
    diving_heuristic,
    rounding_heuristic,
    warm_start_incumbent,
)
from repro.minlp.linprog import LinearProgram, solve_lp, solve_problem_lp
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa, solve_minlp_oa_multitree
from repro.minlp.presolve import presolve
from repro.minlp.problem import Constraint, Domain, Problem, Sense, SOS1, Variable
from repro.minlp.simplex import solve_lp_simplex
from repro.minlp.solution import Solution, SolveStats, Status

__all__ = [
    "BnBOptions",
    "BranchAndBound",
    "Constant",
    "Constraint",
    "Domain",
    "diving_heuristic",
    "Expr",
    "LinearProgram",
    "Model",
    "OACutPool",
    "Problem",
    "Relation",
    "SOS1",
    "Sense",
    "Solution",
    "SolveStats",
    "Status",
    "VarRef",
    "exp",
    "linearize",
    "log",
    "presolve",
    "problem_to_ampl",
    "rounding_heuristic",
    "solve",
    "solve_brute_force",
    "solve_lp",
    "solve_lp_simplex",
    "solve_milp",
    "solve_minlp_nlpbb",
    "solve_minlp_oa",
    "solve_minlp_oa_multitree",
    "solve_nlp",
    "solve_problem_lp",
    "sqrt",
    "sum_exprs",
    "warm_start_incumbent",
]


def solve(
    problem: Problem,
    options: BnBOptions | None = None,
    *,
    algorithm: str = "auto",
    x0: dict[str, float] | None = None,
) -> Solution:
    """Solve ``problem`` with an automatically (or explicitly) chosen algorithm.

    ``auto`` routes: pure LP -> HiGHS; MILP -> branch-and-bound over LP
    relaxations; continuous NLP -> SLSQP; convex MINLP -> LP/NLP-based
    branch-and-bound (falling back to NLP-based B&B when the model has
    nonlinear lower-bounded constraints OA cannot relax safely).
    Explicit MINLP choices: ``"oa"``, ``"nlpbb"``.  The other
    engines (:func:`solve_milp`, :func:`solve_nlp`,
    :func:`solve_minlp_oa_multitree`, :func:`solve_brute_force`, ...) are
    functions to call, not names to pass.

    ``x0`` is an optional (possibly partial) warm-start point, honored by
    the NLP, OA, and NLP-B&B routes and ignored by the rest.
    """
    if algorithm == "auto":
        if problem.is_linear():
            return solve_milp(problem, options) if problem.is_mip() else solve_problem_lp(problem)
        if not problem.is_mip():
            return solve_nlp(problem, x0=x0)
        try:
            return solve_minlp_oa(problem, options, x0=x0)
        except ValueError:
            return solve_minlp_nlpbb(problem, options, x0=x0)
    if algorithm == "oa":
        return solve_minlp_oa(problem, options, x0=x0)
    if algorithm == "nlpbb":
        return solve_minlp_nlpbb(problem, options, x0=x0)
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected 'auto', 'oa' or 'nlpbb'"
    )
