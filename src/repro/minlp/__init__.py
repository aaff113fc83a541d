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
from repro.minlp.linprog import LinearProgram, solve_lp, solve_problem_lp
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa, solve_minlp_oa_multitree
from repro.minlp.presolve import presolve
from repro.minlp.problem import Constraint, Domain, Problem, Sense, SOS1, Variable
from repro.minlp.solution import Solution, SolveStats, Status

__all__ = [
    "BnBOptions",
    "BranchAndBound",
    "Constant",
    "Constraint",
    "Domain",
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
    "solve",
    "solve_brute_force",
    "solve_lp",
    "solve_milp",
    "solve_minlp_nlpbb",
    "solve_minlp_oa",
    "solve_minlp_oa_multitree",
    "solve_nlp",
    "solve_problem_lp",
    "sqrt",
    "sum_exprs",
]


def solve(problem: Problem) -> Solution:
    """Solve ``problem`` with the algorithm its structure calls for.

    Pure LP -> HiGHS; MILP -> branch-and-bound over LP relaxations;
    continuous NLP -> SLSQP; convex MINLP -> LP/NLP-based branch-and-bound
    (falling back to NLP-based B&B when the model has nonlinear equality or
    range constraints OA cannot relax safely).  Every solve starts cold with
    default :class:`BnBOptions`; the engines themselves
    (:func:`solve_minlp_oa`, :func:`solve_minlp_nlpbb`, :func:`solve_milp`,
    :func:`solve_nlp`, ...) are functions to call directly.
    """
    if problem.is_linear():
        return solve_milp(problem) if problem.is_mip() else solve_problem_lp(problem)
    if not problem.is_mip():
        return solve_nlp(problem)
    try:
        return solve_minlp_oa(problem)
    except ValueError:
        return solve_minlp_nlpbb(problem)
