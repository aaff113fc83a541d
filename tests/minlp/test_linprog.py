"""Tests for the LP layer (HiGHS backend)."""

import math

import numpy as np
import pytest

from repro.minlp import Model
from repro.minlp.expr import VarRef
from repro.minlp.linprog import (
    IncrementalLPSolver,
    LinearProgram,
    fold_small_entries,
    solve_lp,
)
from repro.minlp.problem import Problem, Sense
from repro.minlp.solution import Status

X, Y = VarRef("x"), VarRef("y")


def _lp(c, A, row_lb, row_ub, var_lb, var_ub, **kw):
    return LinearProgram(
        c=np.array(c, float),
        A=np.array(A, float),
        row_lb=np.array(row_lb, float),
        row_ub=np.array(row_ub, float),
        var_lb=np.array(var_lb, float),
        var_ub=np.array(var_ub, float),
        **kw,
    )


def test_simple_lp():
    # min -x - y  s.t. x + y <= 4, x,y in [0, 3]
    lp = _lp([-1, -1], [[1, 1]], [-math.inf], [4], [0, 0], [3, 3])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-4.0)
    assert res.x.sum() == pytest.approx(4.0)


def test_equality_row():
    lp = _lp([1, 2], [[1, 1]], [3], [3], [0, 0], [10, 10])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    np.testing.assert_allclose(res.x, [3.0, 0.0], atol=1e-8)


def test_two_sided_row():
    # min x s.t. 2 <= x + y <= 5, 0 <= x,y <= 10
    lp = _lp([1, 0], [[1, 1]], [2], [5], [0, 0], [10, 10])
    res = solve_lp(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.0)
    assert res.x[0] + res.x[1] >= 2 - 1e-8


def test_infeasible():
    lp = _lp([1], [[1]], [5], [math.inf], [0], [1])
    assert solve_lp(lp).status is Status.INFEASIBLE


def test_unbounded():
    lp = _lp([-1], np.zeros((0, 1)), [], [], [0], [math.inf])
    assert solve_lp(lp).status is Status.UNBOUNDED


def test_constant_offset_carried():
    lp = _lp([1], [[1]], [2], [math.inf], [0], [10], c0=7.0)
    res = solve_lp(lp)
    assert res.objective == pytest.approx(9.0)


def test_validation_errors():
    with pytest.raises(ValueError, match="columns"):
        _lp([1, 2], [[1]], [0], [1], [0, 0], [1, 1])
    with pytest.raises(ValueError, match="row_lb"):
        _lp([1], [[1]], [0, 1], [1], [0], [1])
    with pytest.raises(ValueError, match="crossed"):
        _lp([1], [[1]], [2], [1], [0], [1])


def _solve(p):
    """``p``'s LP through HiGHS: the result and its values by name."""
    lp = LinearProgram.from_problem(p)
    res = solve_lp(lp)
    return res, res.values(lp)


def test_from_problem_minimize():
    p = Problem()
    p.add_variable("x", 0, 4)
    p.add_variable("y", 0, 4)
    p.add_constraint("c", X + 2 * Y, ub=6.0)
    p.set_objective(-X - Y)
    res, values = _solve(p)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-5.0)  # x=4, y=1
    assert values["x"] == pytest.approx(4.0)


def test_from_problem_maximize_sign_handling():
    p = Problem()
    p.add_variable("x", 0, 4)
    p.add_constraint("c", X, ub=3.0)
    p.set_objective(5 * X + 1, Sense.MAXIMIZE)
    res, values = _solve(p)
    assert res.status is Status.OPTIMAL
    # The LP minimizes the negated objective, constant included.
    assert res.objective == pytest.approx(-16.0)
    assert p.objective_value(values) == pytest.approx(16.0)
    assert values["x"] == pytest.approx(3.0)


def test_from_problem_constant_term_in_constraint():
    # body (x + 1) <= 4 means x <= 3.
    p = Problem()
    p.add_variable("x", 0, 10)
    p.add_constraint("c", X + 1, ub=4.0)
    p.set_objective(-X)
    _, values = _solve(p)
    assert values["x"] == pytest.approx(3.0)


def test_lp_result_values_mapping():
    lp = _lp([1, 1], [[1, 1]], [2], [2], [0, 0], [2, 2], names=("a", "b"))
    res = solve_lp(lp)
    vals = res.values(lp)
    assert set(vals) == {"a", "b"}
    assert vals["a"] + vals["b"] == pytest.approx(2.0)


def test_a_sweet_spot_tangent_is_solved_as_stated():
    """min T  s.t.  T >= 274.311... - 9.5e-11 n,  n in [64, 32768].

    The OA tangent of ``eighth-32768``'s ice curve near its sweet spot.  The
    optimum is at n = 32768, 3.1e-6 below the constant.  HiGHS drops the
    -9.5e-11 entry and answers the constant; the node-LP path folds the
    entry into the row range first and answers the stated optimum.
    """
    slope, level = 9.47728553621352e-11, 274.31131236063953
    m = Model("tangent")
    n = m.var("n", 64.0, 32768.0)
    t = m.var("T", 0.0, 1e4)
    m.add(t + slope * n >= level)
    m.minimize(t)
    problem = m.build()
    stated = level - slope * 32768.0
    node = IncrementalLPSolver(problem).solve({})
    assert node.objective == pytest.approx(stated, abs=1e-12)
    direct = solve_lp(LinearProgram.from_problem(problem))
    if direct.objective != pytest.approx(stated, abs=1e-9):  # the engine's quirk
        assert direct.objective == pytest.approx(level, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_fold_small_entries_is_a_sound_relaxation(seed):
    """Every box point the stated rows admit, the folded rows admit; each
    row is widened by at most sum |a| (u - l) over its folded entries; only
    entries HiGHS would drop, on bounded columns, are folded."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    tiny = rng.uniform(size=A.shape) < 0.4
    A[tiny] = rng.choice([-1.0, 1.0], size=int(tiny.sum())) * 10.0 ** rng.uniform(
        -14, -9, int(tiny.sum())
    )
    var_lb = rng.uniform(-5.0, 0.0, n)
    var_ub = var_lb + rng.uniform(0.0, 1e5, n)
    var_ub[rng.uniform(size=n) < 0.2] = math.inf
    points = rng.uniform(var_lb, np.minimum(var_ub, var_lb + 1e5), size=(200, n))
    act = points @ A.T
    row_lb = np.where(rng.uniform(size=m) < 0.3, -math.inf, np.quantile(act, 0.1, axis=0))
    row_ub = np.where(rng.uniform(size=m) < 0.3, math.inf, np.quantile(act, 0.9, axis=0))
    folded = (A.copy(), row_lb.copy(), row_ub.copy())
    fold_small_entries(*folded, var_lb, var_ub)

    expected = tiny & np.isfinite(var_ub)
    assert np.array_equal(folded[0], np.where(expected, 0.0, A))
    kept = folded[0] @ points.T
    inside = ((act >= row_lb) & (act <= row_ub)).all(axis=1)
    assert inside.any()
    slack = 1e-9 * (1.0 + np.abs(kept.T))
    assert ((kept.T >= folded[1] - slack) & (kept.T <= folded[2] + slack))[inside].all()
    width = (np.abs(np.where(expected, A, 0.0)) * np.where(
        expected, var_ub - var_lb, 0.0
    )).sum(axis=1)
    for stated, relaxed, sign in ((row_lb, folded[1], 1.0), (row_ub, folded[2], -1.0)):
        finite = np.isfinite(stated)
        widened = sign * (stated[finite] - relaxed[finite])
        assert np.all(widened <= width[finite] + 1e-15 * (1.0 + np.abs(stated[finite])))

