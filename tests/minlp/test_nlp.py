"""Tests for the NLP layer."""

import pytest

from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.solution import Status


def test_unconstrained_quadratic():
    m = Model()
    x = m.var("x", -10, 10)
    m.minimize((x - 3) ** 2 + 1)
    sol = solve_nlp(m.build())
    assert sol.status.is_ok
    assert sol.values["x"] == pytest.approx(3.0, abs=1e-5)
    assert sol.objective == pytest.approx(1.0, abs=1e-8)


def test_bound_active_at_optimum():
    m = Model()
    x = m.var("x", 0, 2)
    m.minimize((x - 5) ** 2)
    sol = solve_nlp(m.build())
    assert sol.values["x"] == pytest.approx(2.0, abs=1e-6)


def test_inequality_constraint_active():
    # min x^2 + y^2 s.t. x + y >= 2 -> x = y = 1.
    m = Model()
    x = m.var("x", -5, 5)
    y = m.var("y", -5, 5)
    m.add(x + y >= 2)
    m.minimize(x**2 + y**2)
    sol = solve_nlp(m.build())
    assert sol.values["x"] == pytest.approx(1.0, abs=1e-5)
    assert sol.values["y"] == pytest.approx(1.0, abs=1e-5)


def test_equality_constraint():
    m = Model()
    x = m.var("x", 0, 5)
    y = m.var("y", 0, 5)
    m.add_equals(x + y, 4)
    m.minimize((x - 3) ** 2 + (y - 3) ** 2)
    sol = solve_nlp(m.build())
    assert sol.values["x"] + sol.values["y"] == pytest.approx(4.0, abs=1e-6)
    assert sol.values["x"] == pytest.approx(2.0, abs=1e-4)


def test_perf_model_allocation_shape():
    """Continuous relaxation of the paper's min-max core: the epigraph T
    lands on max(T_a, T_o) and the node split favors the slower component."""
    m = Model()
    t = m.var("T", lb=0.0, ub=1e5)
    na = m.var("n_a", 1, 127)
    no = m.var("n_o", 1, 127)
    m.add(na + no <= 128)
    m.add(t >= 27180.0 / na + 45.0)   # atm
    m.add(t >= 7731.0 / no + 42.0)    # ocn
    m.minimize(t)
    sol = solve_nlp(m.build())
    assert sol.status.is_ok
    # atm has the bigger scalable term so it should get more nodes.
    assert sol.values["n_a"] > sol.values["n_o"]
    assert sol.values["n_a"] + sol.values["n_o"] == pytest.approx(128.0, abs=1e-3)
    ta = 27180.0 / sol.values["n_a"] + 45.0
    to = 7731.0 / sol.values["n_o"] + 42.0
    assert sol.objective == pytest.approx(max(ta, to), rel=1e-4)
    # At the optimum the two component times balance.
    assert ta == pytest.approx(to, rel=1e-3)


def test_infeasible_detected():
    m = Model()
    x = m.var("x", 0, 1)
    m.add(x >= 2)
    m.minimize(x)
    sol = solve_nlp(m.build())
    assert sol.status is Status.INFEASIBLE


def test_maximize_sense():
    m = Model()
    x = m.var("x", 0, 4)
    m.maximize(-((x - 1) ** 2) + 7)
    sol = solve_nlp(m.build())
    assert sol.values["x"] == pytest.approx(1.0, abs=1e-5)
    assert sol.objective == pytest.approx(7.0, abs=1e-8)


def test_warm_start_dict_accepted():
    m = Model()
    x = m.var("x", 0.5, 10)
    m.minimize(1 / x + x)
    sol = solve_nlp(m.build(), x0={"x": 2.0})
    assert sol.values["x"] == pytest.approx(1.0, abs=1e-4)


def test_stats_count_solves():
    m = Model()
    x = m.var("x", 0, 1)
    # An LP has one exact answer: solved once.
    m.minimize(x)
    assert solve_nlp(m.build()).stats.nlp_solves == 1
