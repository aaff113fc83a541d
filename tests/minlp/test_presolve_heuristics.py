"""Tests for presolve bound tightening."""

import pytest

from repro.minlp.modeling import Model
from tests.minlp.brute_reference import presolve


def test_propagation_tightens_upper_bound():
    m = Model()
    x = m.var("x", 0, 100)
    y = m.var("y", 0, 100)
    m.add(x + y <= 10)
    m.minimize(x)
    tight, report = presolve(m.build())
    assert tight.variable("x").ub == pytest.approx(10.0)
    assert tight.variable("y").ub == pytest.approx(10.0)
    assert report.bounds_tightened >= 2
    assert not report.infeasible


def test_propagation_tightens_lower_bound():
    m = Model()
    x = m.var("x", 0, 100)
    y = m.var("y", 0, 5)
    m.add(x + y >= 50)
    m.minimize(x)
    tight, _ = presolve(m.build())
    assert tight.variable("x").lb == pytest.approx(45.0)


def test_negative_coefficient_direction():
    m = Model()
    x = m.var("x", 0, 100)
    y = m.var("y", 0, 100)
    m.add(x - y <= -20)  # x <= y - 20 -> x <= 80, y >= 20
    m.minimize(x)
    tight, _ = presolve(m.build())
    assert tight.variable("y").lb == pytest.approx(20.0)
    assert tight.variable("x").ub == pytest.approx(80.0)


def test_integer_bounds_rounded():
    m = Model()
    n = m.integer_var("n", 0, 100)
    m.add(2 * n <= 11)
    m.minimize(n)
    tight, _ = presolve(m.build())
    assert tight.variable("n").ub == pytest.approx(5.0)


def test_infeasibility_detected():
    m = Model()
    x = m.var("x", 0, 1)
    m.add(x >= 5)
    m.minimize(x)
    _, report = presolve(m.build())
    assert report.infeasible


def test_constant_row_infeasibility():
    m = Model()
    x = m.var("x", 0, 1)
    m.add(x * 0 + 5 <= 4, "const")  # modeling drops it... build raises instead
    m.minimize(x)
    with pytest.raises(ValueError):
        m.build()


def test_fixed_variables_reported():
    m = Model()
    x = m.var("x", 0, 10)
    y = m.var("y", 3, 10)
    m.add(x + y <= 3)
    m.minimize(x)
    tight, report = presolve(m.build())
    assert "x" in report.fixed_variables  # x forced to 0
    assert "y" in report.fixed_variables  # y forced to 3


def test_nonlinear_rows_ignored_not_crashing():
    m = Model()
    x = m.var("x", 1, 10)
    y = m.var("y", 0, 100)
    m.add(1 / x <= 1)
    m.add(x + y <= 5)
    m.minimize(x)
    tight, report = presolve(m.build())
    assert tight.variable("y").ub == pytest.approx(4.0)
