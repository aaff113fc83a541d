"""Tests for the flat Problem container."""

import math

import numpy as np
import pytest

from repro.minlp.expr import NonlinearExpressionError, VarRef
from repro.minlp.problem import (
    Constraint,
    Domain,
    Problem,
    Sense,
    SOS1,
    Variable,
    values_to_vector,
    vector_to_values,
)

X = VarRef("x")
Y = VarRef("y")


def _basic() -> Problem:
    p = Problem("p")
    p.add_variable("x", 0, 10)
    p.add_variable("y", 0, 5, Domain.INTEGER)
    p.add_constraint("c1", X + Y, ub=8.0)
    p.set_objective(X + 2 * Y, Sense.MAXIMIZE)
    return p


def test_variable_validation():
    with pytest.raises(ValueError, match="lb"):
        Variable("x", 5, 1)
    with pytest.raises(ValueError, match="binary"):
        Variable("b", 0, 2, Domain.BINARY)
    assert Variable("n", 0, 3, Domain.INTEGER).is_discrete
    assert not Variable("t").is_discrete


def test_constraint_validation():
    with pytest.raises(ValueError, match="unbounded on both sides"):
        Constraint("c", X)
    with pytest.raises(ValueError, match="lb"):
        Constraint("c", X, lb=2, ub=1)
    c = Constraint("c", X, lb=1, ub=1)
    assert c.is_equality


def test_constraint_violation():
    c = Constraint("c", X + Y, lb=2.0, ub=4.0)
    assert c.violation({"x": 1.0, "y": 2.0}) == 0.0
    assert c.violation({"x": 0.0, "y": 0.0}) == pytest.approx(2.0)
    assert c.violation({"x": 5.0, "y": 1.0}) == pytest.approx(2.0)


def test_sos1_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        SOS1("s", ("a", "b"), (1.0,))
    with pytest.raises(ValueError, match="at least two"):
        SOS1("s", ("a",), (1.0,))
    with pytest.raises(ValueError, match="duplicate"):
        SOS1("s", ("a", "a"), (1.0, 2.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        SOS1("s", ("a", "b"), (2.0, 1.0))


def test_duplicate_names_rejected():
    p = _basic()
    with pytest.raises(ValueError, match="duplicate variable"):
        p.add_variable("x")
    with pytest.raises(ValueError, match="duplicate constraint"):
        p.add_constraint("c1", X, ub=1.0)


def test_undeclared_variables_rejected():
    p = Problem()
    p.add_variable("x")
    with pytest.raises(ValueError, match="undeclared"):
        p.add_constraint("c", X + VarRef("ghost"), ub=0.0)
    with pytest.raises(ValueError, match="undeclared"):
        p.set_objective(VarRef("ghost"))
    with pytest.raises(ValueError, match="undeclared"):
        p.add_sos1("s", ["x", "ghost"], [1.0, 2.0])


def test_classification():
    p = _basic()
    assert p.is_mip()
    assert p.is_linear()
    p2 = Problem()
    p2.add_variable("x", 1, 5)
    p2.add_constraint("nl", 1 / X, ub=1.0)
    assert not p2.is_linear()
    assert not p2.is_mip()
    assert [c.name for c in p2.nonlinear_constraints()] == ["nl"]


def test_objective_and_feasibility():
    p = _basic()
    v = {"x": 3.0, "y": 2.0}
    assert p.objective_value(v) == 7.0
    assert p.max_violation(v) <= 1e-6
    assert p.max_violation({"x": 9.0, "y": 5.0}) > 1e-6  # violates c1 and x<=10 ok
    assert p.max_violation({"x": 11.0, "y": 0.0}) >= 1.0  # bound violation


def test_integrality_in_max_violation():
    p = _basic()
    assert p.max_violation({"x": 0.0, "y": 2.5}) == pytest.approx(0.5)


def test_sos_violation_detected():
    p = Problem()
    p.add_variable("a", 0, 1, Domain.BINARY)
    p.add_variable("b", 0, 1, Domain.BINARY)
    p.add_sos1("s", ["a", "b"], [1.0, 2.0])
    p.set_objective(VarRef("a"))
    assert p.max_violation({"a": 1.0, "b": 0.0}) <= 1e-6
    assert p.max_violation({"a": 1.0, "b": 1.0}) > 1e-6


def test_relaxed_drops_integrality():
    p = _basic()
    r = p.relaxed()
    assert not r.is_mip()
    assert r.num_constraints == p.num_constraints
    # Original untouched.
    assert p.variable("y").domain is Domain.INTEGER


def test_with_bounds_intersects():
    p = _basic()
    q = p.with_bounds({"x": (2.0, 20.0)})
    assert q.variable("x").lb == 2.0
    assert q.variable("x").ub == 10.0  # intersect, not replace
    assert q.variable("y").domain is Domain.INTEGER
    with pytest.raises(ValueError):
        p.with_bounds({"x": (5.0, 1.0)})


def test_linear_matrix_form():
    p = _basic()
    c, c0, A, row_lb, row_ub, var_lb, var_ub = p.linear_matrix_form()
    np.testing.assert_allclose(c, [1.0, 2.0])
    assert c0 == 0.0
    np.testing.assert_allclose(A, [[1.0, 1.0]])
    assert row_ub[0] == 8.0 and row_lb[0] == -math.inf
    np.testing.assert_allclose(var_ub, [10.0, 5.0])


def test_linear_matrix_form_rejects_nonlinear():
    p = Problem()
    p.add_variable("x", 1, 5)
    p.add_constraint("nl", 1 / X, ub=1.0)
    with pytest.raises(NonlinearExpressionError):
        p.linear_matrix_form()


def test_vector_round_trip():
    p = _basic()
    values = {"x": 1.0, "y": 4.0}
    vec = values_to_vector(p, values)
    assert vector_to_values(p, vec) == values
    with pytest.raises(ValueError):
        vector_to_values(p, [1.0])


def test_repr_kinds():
    assert "MILP" in repr(_basic())
    p = Problem()
    p.add_variable("x", 1, 2)
    assert "LP" in repr(p)
    p.add_constraint("nl", 1 / X, ub=9.0)
    assert "NLP" in repr(p)
