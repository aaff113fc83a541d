"""Tests for branch-and-bound over LP relaxations (MILP)."""

import math

import pytest

from repro.minlp.bnb import BnBOptions
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.problem import Domain
from repro.minlp.solution import Status


def _knapsack(values, weights, cap):
    m = Model("knap")
    zs = m.var_list("z", len(values), 0, 1, domain=Domain.BINARY)
    m.add(sum(w * z for w, z in zip(weights, zs)) <= cap)
    m.maximize(sum(v * z for v, z in zip(values, zs)))
    return m.build(), zs


def test_knapsack_optimum():
    # values 10,13,7; weights 3,4,2; cap 5 -> best is items 1+3? w=5 v=17.
    p, zs = _knapsack([10, 13, 7], [3, 4, 2], 5)
    sol = solve_milp(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(17.0)
    assert sol.values["z[0]"] == pytest.approx(1.0)
    assert sol.values["z[2]"] == pytest.approx(1.0)


def test_pure_lp_shortcut_via_integralities():
    m = Model()
    x = m.integer_var("x", 0, 10)
    m.add(2 * x <= 7)
    m.maximize(x)
    sol = solve_milp(m.build())
    assert sol.objective == pytest.approx(3.0)  # floor(3.5)


def test_integer_rounding_not_assumed():
    # LP optimum x=2.5, y=2.5; best integer point is NOT its rounding.
    m = Model()
    x = m.integer_var("x", 0, 10)
    y = m.integer_var("y", 0, 10)
    m.add(x + y <= 5)
    m.add(4 * x + y <= 12)
    m.maximize(3 * x + 2 * y)
    sol = solve_milp(m.build())
    assert sol.status is Status.OPTIMAL
    # Enumerate by hand: (2,3)->12, (1,4)->11, (2,4) infeasible(x+y=6), best 12.
    assert sol.objective == pytest.approx(12.0)


def test_infeasible_milp():
    m = Model()
    x = m.integer_var("x", 0, 3)
    m.add(x >= 1.2)
    m.add(x <= 1.8)  # no integer in [2, 1] after rounding
    m.minimize(x)
    sol = solve_milp(m.build())
    assert sol.status is Status.INFEASIBLE


def test_equality_milp():
    m = Model()
    x = m.integer_var("x", 0, 10)
    y = m.integer_var("y", 0, 10)
    m.add_equals(2 * x + 3 * y, 12)
    m.minimize(x + y)
    sol = solve_milp(m.build())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(4.0)  # x=0,y=4 or x=3,y=2 -> 5; 0+4=4


def test_sos1_selects_single_member():
    m = Model()
    zs = m.var_list("z", 4, 0, 1, domain=Domain.BINARY)
    n = m.var("n", 0, 100)
    weights = [10.0, 20.0, 40.0, 80.0]
    m.add_equals(sum(zs), 1)
    m.add_equals(sum(w * z for w, z in zip(weights, zs)), n)
    m.sos1(zs, weights=weights)
    m.add(n >= 35)
    m.minimize(n)
    sol = solve_milp(m.build())
    assert sol.status is Status.OPTIMAL
    assert sol.values["n"] == pytest.approx(40.0)
    chosen = [i for i in range(4) if sol.values[f"z[{i}]"] > 0.5]
    assert chosen == [2]


def test_sos_branching_vs_binary_branching_same_answer():
    m = Model()
    zs = m.var_list("z", 8, 0, 1, domain=Domain.BINARY)
    n = m.var("n", 0, 1000)
    weights = [float(2**k) for k in range(8)]
    m.add_equals(sum(zs), 1)
    m.add_equals(sum(w * z for w, z in zip(weights, zs)), n)
    m.sos1(zs, weights=weights)
    m.add(n >= 21)
    m.minimize(n)
    p = m.build()
    with_sos = solve_milp(p, BnBOptions(sos_branching=True))
    without = solve_milp(p, BnBOptions(sos_branching=False))
    assert with_sos.objective == pytest.approx(32.0)
    assert without.objective == pytest.approx(32.0)


def test_node_limit_reported():
    p, _ = _knapsack(list(range(1, 13)), [3] * 12, 7)
    sol = solve_milp(p, BnBOptions(node_limit=1))
    assert sol.status in (Status.NODE_LIMIT, Status.OPTIMAL, Status.FEASIBLE)
    if sol.status is Status.NODE_LIMIT:
        assert sol.stats.nodes_explored == 1


def test_bound_gap_reported_on_optimal():
    p, _ = _knapsack([10, 13, 7], [3, 4, 2], 5)
    sol = solve_milp(p)
    assert sol.gap == 0.0
    assert sol.bound == pytest.approx(sol.objective)


def test_nonlinear_rejected():
    m = Model()
    x = m.integer_var("x", 1, 5)
    m.add(1 / x <= 1)
    m.minimize(x)
    with pytest.raises(ValueError, match="nonlinear"):
        solve_milp(m.build())


def test_maximize_bound_is_upper():
    p, _ = _knapsack([3, 5], [2, 3], 4)
    sol = solve_milp(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(5.0)
    assert sol.bound == pytest.approx(5.0)
