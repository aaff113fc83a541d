"""Tests for the AMPL/Pyomo-like modeling layer."""

import pytest

from repro.minlp.modeling import Model
from repro.minlp.problem import Domain, Sense


def test_var_kinds():
    m = Model()
    m.var("x", 0, 1)
    m.integer_var("n", 1, 99)
    m.binary_var("z")
    p = m.build()
    assert p.variable("x").domain is Domain.CONTINUOUS
    assert p.variable("n").domain is Domain.INTEGER
    assert p.variable("z").domain is Domain.BINARY
    assert p.variable("n").ub == 99.0


def test_var_list_names():
    m = Model()
    zs = m.var_list("z", 3, 0, 1, domain=Domain.BINARY)
    assert [v.name for v in zs] == ["z[0]", "z[1]", "z[2]"]
    assert m.build().num_variables == 3


def test_duplicate_variable_rejected():
    m = Model()
    m.var("x")
    with pytest.raises(ValueError):
        m.var("x")


def test_constraints_from_comparisons():
    m = Model()
    x = m.var("x", 0, 10)
    y = m.var("y", 0, 10)
    m.add(x + y <= 5, "cap")
    m.add(x - y >= -2)
    m.add_equals(x + 2 * y, 7, "eq")
    p = m.build()
    assert p.num_constraints == 3
    cap = p.constraint("cap")
    assert cap.ub == 0.0  # body is x+y-5
    assert p.constraint("eq").is_equality


def test_add_requires_relation():
    m = Model()
    x = m.var("x")
    with pytest.raises(TypeError, match="Relation"):
        m.add(x + 1)  # an Expr, not a Relation


def test_duplicate_constraint_name_rejected():
    m = Model()
    x = m.var("x")
    m.add(x <= 1, "c")
    with pytest.raises(ValueError):
        m.add(x <= 2, "c")


def test_trivially_true_constant_constraint_dropped():
    m = Model()
    x = m.var("x")
    m.add((x * 0 + 0.5) <= 1.0)  # body folds to a constant
    m.minimize(x)
    assert m.build().num_constraints == 0


def test_constant_infeasible_constraint_raises_at_build():
    m = Model()
    x = m.var("x")
    m.add((x * 0 + 0.5) >= 1.0)
    with pytest.raises(ValueError, match="infeasible"):
        m.build()


def test_objective_sense():
    m = Model()
    x = m.var("x")
    m.maximize(2 * x)
    assert m.build().sense is Sense.MAXIMIZE
    m.minimize(x)
    assert m.build().sense is Sense.MINIMIZE


def test_sos1_default_weights():
    m = Model()
    zs = m.var_list("z", 3, 0, 1, domain=Domain.BINARY)
    m.sos1(zs)
    p = m.build()
    sos = p.sos1_sets[0]
    assert sos.members == ("z[0]", "z[1]", "z[2]")
    assert sos.weights == (1.0, 2.0, 3.0)


def test_sos1_custom_weights_and_name():
    m = Model()
    zs = m.var_list("z", 2, 0, 1, domain=Domain.BINARY)
    m.sos1(zs, weights=[4.0, 768.0], name="ocean")
    p = m.build()
    assert p.sos1_sets[0].name == "ocean"
    assert p.sos1_sets[0].weights == (4.0, 768.0)


def test_numeric_objective_allowed():
    m = Model()
    m.var("x")
    m.minimize(0)
    assert m.build().objective_value({"x": 1.0}) == 0.0


def test_table1_style_model_builds():
    """A miniature of the paper's layout-1 model compiles end to end."""
    m = Model("layout1")
    t = m.var("T", lb=0.0)
    t_icelnd = m.var("T_icelnd", lb=0.0)
    n = {c: m.integer_var(f"n_{c}", 1, 128) for c in ("i", "l", "a", "o")}
    perf = {c: 100.0 / n[c] + 1.0 for c in n}
    m.add(t_icelnd >= perf["i"])
    m.add(t_icelnd >= perf["l"])
    m.add(t >= t_icelnd + perf["a"])
    m.add(t >= perf["o"])
    m.add(n["a"] + n["o"] <= 128)
    m.add(n["i"] + n["l"] <= n["a"])
    m.minimize(t)
    p = m.build()
    assert p.num_variables == 6
    assert p.num_constraints == 6
    assert len(p.nonlinear_constraints()) == 4
