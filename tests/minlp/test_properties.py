"""Cross-cutting property-based tests of the solver stack.

These are the library's deepest invariants:

* presolve never changes a model's optimal value;
* the incremental LP engine agrees with from-scratch solves under random
  bound overrides;
* all four MINLP algorithms agree with brute force on random convex
  allocation instances (the HSLB problem family).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp import solve_milp
from repro.minlp.brute import solve_brute_force
from repro.minlp.linprog import IncrementalLPSolver, LinearProgram, solve_lp, solve_problem_lp
from repro.minlp.modeling import Model
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa, solve_minlp_oa_multitree
from repro.minlp.presolve import presolve
from repro.minlp.problem import Domain
from repro.minlp.solution import Status


# ------------------------------------------------------- presolve invariance


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_presolve_preserves_milp_optimum(data):
    n = data.draw(st.integers(2, 5), label="n")
    values = data.draw(
        st.lists(st.integers(1, 30), min_size=n, max_size=n), label="values"
    )
    weights = data.draw(
        st.lists(st.integers(1, 12), min_size=n, max_size=n), label="weights"
    )
    cap = data.draw(st.integers(1, 40), label="cap")

    m = Model("knap")
    zs = m.var_list("z", n, 0, 1, domain=Domain.BINARY)
    m.add(sum(w * z for w, z in zip(weights, zs)) <= cap)
    m.maximize(sum(v * z for v, z in zip(values, zs)))
    p = m.build()

    tightened, report = presolve(p)
    assert not report.infeasible  # z=0 is always feasible here
    before = solve_milp(p)
    after = solve_milp(tightened)
    assert before.status is after.status is Status.OPTIMAL
    assert after.objective == pytest.approx(before.objective)


def test_presolve_detecting_infeasible_matches_solver():
    m = Model()
    x = m.integer_var("x", 0, 5)
    y = m.integer_var("y", 0, 5)
    m.add(x + y >= 20)
    m.minimize(x)
    p = m.build()
    _, report = presolve(p)
    assert report.infeasible
    assert solve_milp(p).status is Status.INFEASIBLE


# -------------------------------------------- incremental LP == full solves


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_incremental_lp_matches_scratch_solves(data):
    n = data.draw(st.integers(2, 5), label="n")
    mrows = data.draw(st.integers(1, 4), label="m")
    elem = st.floats(-4, 4, allow_nan=False, allow_infinity=False)

    m = Model("lp")
    xs = [m.var(f"x{j}", 0.0, 8.0) for j in range(n)]
    c = data.draw(st.lists(elem, min_size=n, max_size=n), label="c")
    for i in range(mrows):
        row = data.draw(st.lists(elem, min_size=n, max_size=n), label=f"A{i}")
        rhs = data.draw(st.floats(0.0, 20.0), label=f"b{i}")
        m.add(sum(a * x for a, x in zip(row, xs)) <= rhs, f"r{i}")
    m.minimize(sum(ci * x for ci, x in zip(c, xs)))
    p = m.build()

    inc = IncrementalLPSolver(p)
    # Random bound overrides on a subset of variables.
    overrides = {}
    for j in range(n):
        if data.draw(st.booleans(), label=f"override{j}"):
            lo = data.draw(st.floats(0.0, 4.0), label=f"lo{j}")
            hi = data.draw(st.floats(4.0, 8.0), label=f"hi{j}")
            overrides[f"x{j}"] = (lo, hi)

    fast = inc.solve(overrides)
    slow = solve_problem_lp(p.with_bounds(overrides))
    assert fast.status is slow.status
    if slow.status is Status.OPTIMAL:
        assert fast.objective == pytest.approx(slow.objective, abs=1e-6)


def test_incremental_lp_cut_rows_match_scratch():
    m = Model("cuts")
    x = m.var("x", 0, 10)
    y = m.var("y", 0, 10)
    m.add(x + y <= 12, "cap")
    m.minimize(-x - 2 * y)
    p = m.build()
    inc = IncrementalLPSolver(p)
    from repro.minlp.expr import VarRef

    cut = 2 * VarRef("x") + VarRef("y")
    inc.add_row(cut, -math.inf, 10.0)
    fast = inc.solve({})

    p2 = m.build()
    p2.add_constraint("cut", cut, ub=10.0)
    slow = solve_problem_lp(p2)
    assert fast.objective == pytest.approx(slow.objective, abs=1e-8)


def test_incremental_lp_rejects_nonlinear():
    m = Model()
    x = m.var("x", 1, 5)
    m.add(1 / x <= 1)
    m.minimize(x)
    with pytest.raises(ValueError, match="nonlinear"):
        IncrementalLPSolver(m.build())


def test_incremental_lp_crossed_override_infeasible():
    m = Model()
    x = m.var("x", 0, 10)
    m.minimize(x)
    inc = IncrementalLPSolver(m.build())
    assert inc.solve({"x": (6.0, 4.0)}).status is Status.INFEASIBLE


# -------------------------------------- the solver zoo on random instances


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_all_solvers_agree_on_random_allocation_minlp(data):
    """Random HSLB-family instances: min-max allocation over 2-3 components
    with Amdahl curves; OA single-tree, OA multi-tree and NLP-BB must all
    match brute-force enumeration."""
    k = data.draw(st.integers(2, 3), label="k")
    budget = data.draw(st.integers(k + 2, 16), label="budget")
    params = [
        (
            data.draw(st.floats(10.0, 500.0), label=f"a{i}"),
            data.draw(st.floats(0.0, 5.0), label=f"d{i}"),
        )
        for i in range(k)
    ]

    m = Model("zoo")
    t = m.var("T", 0, 1e5)
    ns = [m.integer_var(f"n{i}", 1, budget) for i in range(k)]
    m.add(sum(ns) <= budget)
    for i, (a, d) in enumerate(params):
        m.add(t >= a / ns[i] + d)
    m.minimize(t)
    p = m.build()

    ref = solve_brute_force(p)
    assert ref.status is Status.OPTIMAL
    for solver in (
        solve_minlp_oa,
        solve_minlp_oa_multitree,
        solve_minlp_nlpbb,
    ):
        sol = solver(p)
        assert sol.status is Status.OPTIMAL, solver.__name__
        assert sol.objective == pytest.approx(ref.objective, rel=1e-4), solver.__name__
