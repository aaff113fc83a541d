"""Solver hot-path guarantees: LP agreement and the incremental LP path.

HiGHS (:func:`solve_lp`, the one LP engine) must agree with the retained
loop-based reference simplex (:func:`solve_lp_simplex_reference`) on random
instances — including degenerate, redundant-row, and free-variable cases —
and branch-and-bound over either must reach the same MILP optimum.
"""

import math

import numpy as np
import pytest

from repro.minlp import BranchAndBound, Model
from repro.minlp.linprog import IncrementalLPSolver, LinearProgram, solve_lp
from repro.minlp.milp import solve_milp
from repro.minlp.solution import Solution, Status
from tests.minlp.simplex_reference import solve_lp_simplex_reference


def _random_lp(rng, n, m, *, degenerate=False, redundant=False, free=False):
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.0, 1.0, n)
    b = A @ x_feas
    c = rng.normal(size=n)
    row_lb = b - rng.uniform(0.1, 1.0, m)
    row_ub = b + rng.uniform(0.1, 1.0, m)
    var_lb = np.zeros(n)
    var_ub = np.ones(n)
    if degenerate:
        # Equality rows through a common point create degenerate vertices.
        k = max(1, m // 2)
        row_lb[:k] = row_ub[:k] = b[:k]
    if redundant:
        A = np.vstack([A, A[0] * 2.0])
        row_lb = np.append(row_lb, row_lb[0] * 2.0)
        row_ub = np.append(row_ub, row_ub[0] * 2.0)
    if free:
        var_lb = var_lb.copy()
        var_ub = var_ub.copy()
        var_lb[0] = -math.inf
        var_ub[0] = math.inf
        j = 1 % n
        var_lb[j] = -math.inf  # mirror variable: only an upper bound
    return LinearProgram(
        c=c, A=A, row_lb=row_lb, row_ub=row_ub, var_lb=var_lb, var_ub=var_ub
    )


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"degenerate": True},
        {"redundant": True},
        {"free": True},
        {"degenerate": True, "redundant": True, "free": True},
    ],
    ids=["plain", "degenerate", "redundant", "free", "all"],
)
def test_three_way_agreement(shape):
    """HiGHS == loop reference within 1e-7, and HiGHS's point is feasible."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 8))
        lp = _random_lp(rng, n, m, **shape)
        highs = solve_lp(lp)
        ref = solve_lp_simplex_reference(lp)
        if not (
            ref.status is Status.UNBOUNDED and highs.status is Status.INFEASIBLE
        ):
            # HiGHS presolve reports "infeasible OR unbounded" as infeasible;
            # when the reference proves unboundedness that's the same ray.
            assert highs.status is ref.status, (seed, highs.message, ref.message)
        if highs.status is Status.OPTIMAL:
            assert highs.objective == pytest.approx(ref.objective, abs=1e-7)
            assert np.all(lp.A @ highs.x <= lp.row_ub + 1e-7)
            assert np.all(lp.A @ highs.x >= lp.row_lb - 1e-7)


def _knapsack_problem(seed=0, items=10):
    rng = np.random.default_rng(seed)
    value = rng.uniform(1.0, 10.0, items)
    weight = rng.uniform(1.0, 5.0, items)
    m = Model(f"knapsack{seed}")
    xs = [m.binary_var(f"x{i}") for i in range(items)]
    m.add(sum(float(weight[i]) * xs[i] for i in range(items)) <= float(weight.sum()) / 2)
    m.maximize(sum(float(value[i]) * xs[i] for i in range(items)))
    return m.build()


def _reference_relaxation(problem):
    """A node relaxation answered by the reference simplex, not HiGHS."""
    lp = LinearProgram.from_problem(problem)
    res = solve_lp_simplex_reference(lp)
    if res.status is not Status.OPTIMAL:
        return Solution(res.status, message=res.message)
    sign = -1.0 if problem.sense.value == "maximize" else 1.0
    obj = sign * res.objective
    return Solution(
        Status.OPTIMAL, values=res.values(lp), objective=obj, bound=obj
    )


def test_simplex_backend_agrees_with_highs_milp():
    """The same tree search over reference-simplex relaxations reaches the
    optimum branch-and-bound on HiGHS reaches."""
    for seed in range(4):
        problem = _knapsack_problem(seed, items=8)
        reference = BranchAndBound(problem, _reference_relaxation).solve()
        highs = solve_milp(problem)
        assert highs.status is reference.status
        assert highs.objective == pytest.approx(reference.objective, abs=1e-7)


def test_incremental_solver_add_row_invalidates_cache():
    from repro.minlp.expr import VarRef

    problem = _knapsack_problem(1, items=5)
    solver = IncrementalLPSolver(problem)
    first = solver.solve({})
    assert first.status is Status.OPTIMAL
    # A cut that actually binds: forbid the current all-or-nothing optimum.
    body = sum(VarRef(f"x{i}") for i in range(5))
    solver.add_row(body, -math.inf, 2.0)
    second = solver.solve({})
    assert second.status is Status.OPTIMAL
    assert sum(v for k, v in second.values.items() if k.startswith("x")) <= 2 + 1e-9
