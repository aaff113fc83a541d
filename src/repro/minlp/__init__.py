"""MINLP toolkit: modeling, LP/NLP layers, and branch-and-bound solvers.

This subpackage is the library's stand-in for the AMPL + MINOTAUR stack the
paper uses: :mod:`repro.minlp.modeling` plays AMPL (declarative models with
automatic derivatives), and the solver modules play MINOTAUR's LP/NLP-based
branch-and-bound (§III-E).

Typical use::

    from repro.minlp import Model, solve_minlp_oa

    m = Model("demo")
    x = m.integer_var("x", 1, 10)
    t = m.var("t", lb=0.0)
    m.add(t >= 100.0 / x + 2.0 * x)
    m.minimize(t)
    solution = solve_minlp_oa(m.build())

Each engine is called directly — OA (:func:`solve_minlp_oa`) for convex
MINLPs, NLP-based B&B (:func:`solve_minlp_nlpbb`) where OA's cuts would be
invalid, :func:`solve_milp`, :func:`solve_nlp`, :func:`solve_lp` — and
problems with an exact direct algorithm skip them (:mod:`repro.core.greedy`,
:func:`repro.cesm.layouts.direct_layout`).
"""

from __future__ import annotations

from repro.minlp.ampl_export import problem_to_ampl
from repro.minlp.bnb import BnBOptions, BranchAndBound
from repro.minlp.cutpool import OACutPool
from repro.minlp.expr import (
    Constant,
    Expr,
    Relation,
    VarRef,
    linearize,
    sum_exprs,
)
from repro.minlp.linprog import LinearProgram, solve_lp
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa, solve_minlp_oa_multitree
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
    "linearize",
    "problem_to_ampl",
    "solve_lp",
    "solve_milp",
    "solve_minlp_nlpbb",
    "solve_minlp_oa",
    "solve_minlp_oa_multitree",
    "solve_nlp",
    "sum_exprs",
]

