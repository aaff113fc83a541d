"""The pure-Python simplex must agree with HiGHS."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp import simplex
from repro.minlp.cutpool import OACutPool
from repro.minlp.linprog import LinearProgram, solve_lp
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.simplex import solve_lp_simplex
from repro.minlp.solution import Status
from repro.service.solver import build_problem
from tests.minlp.test_engine_independence import _request_pool


def _lp(c, A, row_lb, row_ub, var_lb, var_ub, **kw):
    return LinearProgram(
        c=np.array(c, float),
        A=np.array(A, float) if np.size(A) else np.zeros((0, len(c))),
        row_lb=np.array(row_lb, float),
        row_ub=np.array(row_ub, float),
        var_lb=np.array(var_lb, float),
        var_ub=np.array(var_ub, float),
        **kw,
    )


def _agree(lp, atol=1e-6):
    ours = solve_lp_simplex(lp)
    ref = solve_lp(lp)
    assert ours.status is ref.status, (ours.message, ref.message)
    if ref.status is Status.OPTIMAL:
        assert ours.objective == pytest.approx(ref.objective, abs=atol)
    return ours, ref


def test_basic_agreement():
    _agree(_lp([-1, -1], [[1, 1]], [-math.inf], [4], [0, 0], [3, 3]))


def test_equality_agreement():
    _agree(_lp([1, 2], [[1, 1]], [3], [3], [0, 0], [10, 10]))


def test_two_sided_agreement():
    _agree(_lp([1, -1], [[1, 1]], [2], [5], [0, 0], [10, 10]))


def test_infeasible_agreement():
    _agree(_lp([1], [[1]], [5], [math.inf], [0], [1]))


def test_unbounded_detected():
    lp = _lp([-1], [[0.0]], [-math.inf], [1.0], [0], [math.inf])
    assert solve_lp_simplex(lp).status is Status.UNBOUNDED


def test_free_variable_split():
    # min x s.t. x >= -7 (free variable, negative optimum).
    lp = _lp([1], [[1]], [-7], [math.inf], [-math.inf], [math.inf])
    res = solve_lp_simplex(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-7.0)
    assert res.x[0] == pytest.approx(-7.0)


def test_mirror_variable_only_upper_bound():
    # min -x with x <= 9 and a row keeping it feasible.
    lp = _lp([-1], [[1]], [-math.inf], [9], [-math.inf], [9])
    res = solve_lp_simplex(lp)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-9.0)


def test_shifted_lower_bound():
    # min x with x >= 2.5 via variable bound only (no rows).
    lp = _lp([1], np.zeros((0, 1)), [], [], [2.5], [7.0])
    res = solve_lp_simplex(lp)
    assert res.status is Status.OPTIMAL
    assert res.x[0] == pytest.approx(2.5)


def test_box_only_unbounded():
    lp = _lp([-1], np.zeros((0, 1)), [], [], [0.0], [math.inf])
    assert solve_lp_simplex(lp).status is Status.UNBOUNDED


def test_degenerate_redundant_rows():
    # Duplicate rows exercise the redundant-artificial path.
    lp = _lp(
        [1, 1],
        [[1, 1], [1, 1], [2, 2]],
        [2, 2, 4],
        [2, 2, 4],
        [0, 0],
        [5, 5],
    )
    _agree(lp)


def test_constant_offset():
    lp = _lp([1], [[1]], [1], [math.inf], [0], [5], c0=3.0)
    res = solve_lp_simplex(lp)
    assert res.objective == pytest.approx(4.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_lps_agree_with_highs(data):
    """Property: on random bounded LPs both backends agree on status/value."""
    n = data.draw(st.integers(1, 4), label="n")
    m = data.draw(st.integers(0, 4), label="m")
    # Coefficients on a 1/8 grid: a float strategy eventually draws |a| ~ 1e-9,
    # which HiGHS presolves away (test_tiny_coefficient_is_kept_by_the_simplex).
    elem = st.integers(-40, 40).map(lambda k: k / 8.0)
    c = data.draw(st.lists(elem, min_size=n, max_size=n), label="c")
    A = [
        data.draw(st.lists(elem, min_size=n, max_size=n), label=f"row{i}")
        for i in range(m)
    ]
    # Bounded box keeps everything finite so OPTIMAL/INFEASIBLE are the only
    # possible outcomes.
    var_lb = [0.0] * n
    var_ub = [data.draw(st.floats(0.5, 10.0), label=f"ub{j}") for j in range(n)]
    row_ub = [data.draw(st.floats(-2.0, 20.0), label=f"rub{i}") for i in range(m)]
    row_lb = [-math.inf] * m
    lp = _lp(c, A, row_lb, row_ub, var_lb, var_ub)
    _agree(lp, atol=1e-5)


def test_tiny_coefficient_is_kept_by_the_simplex():
    """min -y  s.t.  y <= 2x,  1e-9*y <= 0,  (x, y) in [0, 1]^2.

    The second row forces y = 0, so the optimum is 0: the simplex is right.
    HiGHS drops matrix entries that small and answers -1 at (1, 1), a point
    that violates the row as written.  The random property above found this
    example while it drew coefficients from ``st.floats``; branch-and-bound
    never meets one — every coefficient of a node LP comes from the model or
    from a tangent of a fitted curve, O(1e-3 ... 1e6).
    """
    lp = _lp([0, -1], [[-2, 1], [0, 1e-9]], [-math.inf] * 2, [0, 0], [0, 0], [1, 1])
    ours = solve_lp_simplex(lp)
    assert ours.status is Status.OPTIMAL
    assert ours.objective == 0.0
    assert ours.x.tolist() == [0.0, 0.0]
    ref = solve_lp(lp)
    if ref.objective != pytest.approx(0.0):  # the engine's quirk, not a contract
        assert lp.A[1] @ ref.x > 0.0


def test_a_warm_start_never_calls_a_feasible_lp_infeasible(monkeypatch):
    """One serving family's four min-max budgets, solved by OA against one
    shared cut pool, components in canonical order: the 96-node tree's warm
    bases are ill-conditioned (condition numbers 2e10-5e12), and the dual
    simplex once read three of its feasible node LPs as infeasible off the
    refactorized tableau — the tree came back empty, "infeasible (tree
    exhausted)".  Every warm-started LP must get HiGHS's status."""
    warm = []
    real = simplex.solve_lp_simplex

    def spy(lp, basis=None):
        res = real(lp, basis=basis)
        if basis is not None:
            warm.append((lp, res.status))
        return res

    monkeypatch.setattr(simplex, "solve_lp_simplex", spy)
    pool = OACutPool()
    for request in _request_pool()[:4]:
        problem = build_problem(replace(request, objective="min-max"))
        assert solve_minlp_oa(problem, cut_pool=pool).status.is_ok
    assert warm
    assert [status for _, status in warm] == [solve_lp(lp).status for lp, _ in warm]
