"""Unit + property tests for the expression system."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp.expr import (
    ZERO,
    Add,
    Constant,
    Div,
    Mul,
    NonlinearExpressionError,
    Pow,
    Unary,
    Relation,
    VarRef,
    as_expr,
    exp,
    linearize,
    log,
    prod_exprs,
    sqrt,
    sum_exprs,
)
from repro.minlp.expr import _add

X = VarRef("x")
Y = VarRef("y")


# ---------------------------------------------------------------- evaluation


def test_constant_evaluation():
    assert Constant(2.5).evaluate({}) == 2.5


def test_var_evaluation_and_missing():
    assert X.evaluate({"x": 3.0}) == 3.0
    with pytest.raises(KeyError, match="x"):
        X.evaluate({})


def test_arithmetic_evaluation():
    e = (X + 2) * (Y - 1) / 4 - X**2
    assert e.evaluate({"x": 2.0, "y": 5.0}) == pytest.approx((4 * 4) / 4 - 4)


def test_perf_function_shape():
    # The paper's T(n) = a/n + b*n^c + d.
    t = 27180.0 / X + 1e-4 * X**1.2 + 45.7
    assert t.evaluate({"x": 104.0}) == pytest.approx(27180 / 104 + 1e-4 * 104**1.2 + 45.7)


def test_vectorized_evaluation_broadcasts():
    e = 1.0 / X + X**2
    n = np.array([1.0, 2.0, 4.0])
    out = e.evaluate({"x": n})
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, 1.0 / n + n**2)


def test_unary_functions():
    assert log(X).evaluate({"x": math.e}) == pytest.approx(1.0)
    assert exp(X).evaluate({"x": 0.0}) == pytest.approx(1.0)
    assert sqrt(X).evaluate({"x": 9.0}) == pytest.approx(3.0)


def test_rpow_and_rtruediv():
    assert (2.0**X).evaluate({"x": 3.0}) == pytest.approx(8.0)
    assert (1.0 / X).evaluate({"x": 4.0}) == pytest.approx(0.25)


# ------------------------------------------------------------ simplification


def test_additive_identity_folds():
    assert X + 0 == X
    assert 0 + X == X


def test_multiplicative_identities_fold():
    assert X * 1 == X
    assert X * 0 == Constant(0.0)
    assert (X * 0 + 3).evaluate({}) == 3.0


def test_constant_folding_in_chains():
    e = as_expr(2) + 3 + X
    # Constants collapse into a single term.
    assert e.evaluate({"x": 0.0}) == 5.0


def test_pow_simplifications():
    assert X**1 == X
    assert (X**0).evaluate({}) == 1.0
    assert (as_expr(2.0) ** 3).evaluate({}) == 8.0


def test_div_by_constant_becomes_scaling():
    e = X / 2.0
    assert e.evaluate({"x": 5.0}) == 2.5
    with pytest.raises(ZeroDivisionError):
        X / 0.0


# ------------------------------------------------------------------ equality


def test_structural_equality_and_hash():
    a = 2 * X + 1
    b = 2 * X + 1
    assert a == b
    assert hash(a) == hash(b)
    assert a != 2 * Y + 1


def test_immutability():
    with pytest.raises(AttributeError):
        X.name = "z"
    with pytest.raises(AttributeError):
        Constant(1.0).value = 2.0


# ------------------------------------------------------------------- variables


def test_variables_collection():
    e = X * Y + log(X) + 3
    assert e.variables() == frozenset({"x", "y"})
    assert Constant(1.0).variables() == frozenset()


def test_substitute():
    e = X**2 + Y
    out = e.substitute({"x": Y})
    assert out.evaluate({"y": 3.0}) == pytest.approx(12.0)


# ----------------------------------------------------------- differentiation


def _fd(e, values, var, h=1e-6):
    up = dict(values)
    dn = dict(values)
    up[var] += h
    dn[var] -= h
    return (e.evaluate(up) - e.evaluate(dn)) / (2 * h)


@pytest.mark.parametrize(
    "expr",
    [
        X + Y,
        X * Y,
        X / Y,
        X**3,
        X**1.7,
        2.0**X,
        X**Y,
        log(X),
        exp(X * 0.1),
        sqrt(X + Y),
        5.0 / X + 0.3 * X**1.5 + 2.0,
        (X + Y) * (X - Y) / (X + 1),
    ],
)
def test_symbolic_matches_finite_difference(expr):
    values = {"x": 1.7, "y": 2.3}
    for var in ("x", "y"):
        sym = expr.diff(var).evaluate(values)
        num = _fd(expr, values, var)
        assert sym == pytest.approx(num, rel=1e-5, abs=1e-7)


def test_derivative_of_constant_is_zero():
    assert Constant(5.0).diff("x").evaluate({}) == 0.0
    assert Y.diff("x").evaluate({}) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.1, 100.0),
    b=st.floats(0.0, 10.0),
    c=st.floats(1.0, 2.5),
    d=st.floats(0.0, 50.0),
    n=st.floats(1.0, 2000.0),
)
def test_perf_model_derivative_property(a, b, c, d, n):
    """d/dn [a/n + b n^c + d] == -a/n^2 + b c n^(c-1), symbolically."""
    t = a / X + b * X**c + d
    sym = t.diff("x").evaluate({"x": n})
    expected = -a / n**2 + b * c * n ** (c - 1)
    assert sym == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.5, 5.0),
    y=st.floats(0.5, 5.0),
    k=st.floats(-3.0, 3.0),
)
def test_random_composite_derivative_property(x, y, k):
    e = (X * Y + k) ** 2 / (Y + 6.0) + exp(X * 0.2)
    values = {"x": x, "y": y}
    for var in ("x", "y"):
        assert e.diff(var).evaluate(values) == pytest.approx(
            _fd(e, values, var), rel=1e-4, abs=1e-6
        )


# ------------------------------------------------------------------ linearity


def test_linear_coefficients_affine():
    e = 2 * X - 3 * Y + 7
    coeffs, const = e.linear_coefficients()
    assert coeffs == {"x": 2.0, "y": -3.0}
    assert const == 7.0
    assert e.is_linear()


def test_linear_coefficients_with_scaling_division():
    coeffs, const = ((X + 4) / 2).linear_coefficients()
    assert coeffs == {"x": 0.5}
    assert const == 2.0


def test_nonlinear_rejected():
    for e in (X * Y, X**2, 1 / X, log(X)):
        assert not e.is_linear()
        with pytest.raises(NonlinearExpressionError):
            e.linear_coefficients()


def test_constant_powers_are_linear():
    e = Constant(2.0) ** 3 * X
    coeffs, const = e.linear_coefficients()
    assert coeffs == {"x": 8.0}


# ------------------------------------------------------------------ relations


def test_le_ge_build_relations():
    r = X + Y <= 5
    assert isinstance(r, Relation)
    assert r.ub == 0.0 and r.lb == -math.inf
    assert r.body.evaluate({"x": 2.0, "y": 3.0}) == 0.0

    r2 = X >= 1
    assert r2.lb == 0.0 and r2.ub == math.inf


def test_relation_equals():
    r = Relation.equals(X + Y, 4)
    assert r.lb == r.ub == 0.0
    assert r.body.evaluate({"x": 1.0, "y": 3.0}) == 0.0


def test_reversed_comparison_with_float():
    r = 3.0 <= X  # delegates to X.__ge__(3.0)
    assert isinstance(r, Relation)
    assert r.lb == 0.0


# ---------------------------------------------------------------- linearize


def test_linearize_is_tangent():
    f = 10.0 / X + X**2
    x0 = {"x": 2.0}
    lin = linearize(f, x0)
    assert lin.is_linear()
    # Tangency: equal value and derivative at the expansion point.
    assert lin.evaluate(x0) == pytest.approx(f.evaluate(x0))
    assert lin.diff("x").evaluate(x0) == pytest.approx(f.diff("x").evaluate(x0))


@settings(max_examples=50, deadline=None)
@given(x0=st.floats(0.5, 50.0), x=st.floats(0.5, 50.0))
def test_linearize_underestimates_convex(x0, x):
    """For convex f, the tangent is a global under-estimator (OA validity)."""
    f = 7.0 / X + 0.01 * X**1.5 + 3.0
    lin = linearize(f, {"x": x0})
    assert lin.evaluate({"x": x}) <= f.evaluate({"x": x}) + 1e-8


def test_sum_prod_helpers():
    assert sum_exprs([]).evaluate({}) == 0.0
    assert prod_exprs([]).evaluate({}) == 1.0
    assert sum_exprs([X, Y, Constant(1.0)]).evaluate({"x": 1, "y": 2}) == 4.0


def test_as_expr_rejects_junk():
    with pytest.raises(TypeError):
        as_expr("not an expression")


# ------------------------------------------------ one-pass sums, memoization


def _fold_sum(terms):
    """The sum as ``_add`` folds it left to right from ZERO — the tree
    :func:`sum_exprs` must build in one pass."""
    out = ZERO
    for t in terms:
        out = _add(out, t)
    return out


_Z = [VarRef(f"z{k}") for k in range(4)]
_SUM_CONSTANTS = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -3.0, 1e16, -1e16, 1e-300, math.inf]


@st.composite
def _sum_term(draw, depth=2):
    kind = draw(st.sampled_from(
        ("const", "var", "scaled", "add", "nested", "mul", "div", "pow", "log")
        if depth else ("const", "var")
    ))
    if kind == "const":
        return Constant(draw(st.sampled_from(_SUM_CONSTANTS)))
    if kind == "var":
        return draw(st.sampled_from(_Z))
    if kind == "scaled":
        return draw(st.sampled_from(_SUM_CONSTANTS[2:7])) * draw(st.sampled_from(_Z))
    part = st.lists(_sum_term(depth - 1), min_size=1, max_size=4)
    if kind == "add":  # built by the operators: flat, constant last
        return sum_exprs(draw(part))
    if kind == "nested":  # built directly: Adds and constants anywhere
        return Add(tuple(draw(st.lists(_sum_term(depth - 1), min_size=1, max_size=3))))
    if kind == "mul":
        return Mul(tuple(draw(st.lists(_sum_term(depth - 1), min_size=2, max_size=3))))
    if kind == "div":
        return Div(draw(_sum_term(depth - 1)), draw(st.sampled_from(_Z)))
    if kind == "pow":
        return Pow(draw(st.sampled_from(_Z)), draw(_sum_term(depth - 1)))
    return Unary("log", _add(draw(st.sampled_from(_Z)), draw(_sum_term(depth - 1))))


def _same_tree(a, b):
    assert type(a) is type(b)
    assert a._key() == b._key()
    assert repr(a) == repr(b)  # tells 0.0 from -0.0, which _key does not


@settings(max_examples=400, deadline=None)
@given(terms=st.lists(_sum_term(), max_size=12))
def test_sum_exprs_builds_the_fold_tree(terms):
    """One pass, same tree: term order, the constants' summation order, the
    dropped exact-0 constant, cancellation at 1e16, and lone nested Adds
    (which the fold splices on its next step)."""
    _same_tree(sum_exprs(terms), _fold_sum(terms))
    _same_tree(sum_exprs(iter(terms)), _fold_sum(terms))


def test_sum_exprs_cases_the_fold_decides():
    inner = Add((X, Constant(2.0), Y))
    for terms in (
        [Constant(1e16), X, Constant(1.0), Constant(-1e16)],
        [X, Constant(3.0), Constant(-3.0)],
        [Constant(-0.0)],
        [Constant(-0.0), X],
        [inner],
        [inner, Y],
        [Constant(5.0), inner, Constant(-5.0), Y],
        [Add((inner, Constant(0.0))), X],
    ):
        _same_tree(sum_exprs(terms), _fold_sum(terms))


def test_builtin_sum_and_sum_exprs_agree():
    """The builder's rows moved from builtin ``sum`` (pairwise ``__radd__``
    then ``__add__``) to :func:`sum_exprs`; the trees are the same."""
    zs = [VarRef(f"z[{k}]") for k in range(241)]
    _same_tree(sum_exprs(zs), sum(zs))
    scaled = [float(2 * k + 2) * z for k, z in enumerate(zs)]
    _same_tree(sum_exprs(scaled), sum(scaled))


def _fresh_variables(e):
    """``variables()`` computed from scratch, touching no memo."""
    if isinstance(e, Constant):
        return frozenset()
    if isinstance(e, VarRef):
        return frozenset((e.name,))
    if isinstance(e, (Add, Mul)):
        return frozenset().union(*map(_fresh_variables, e.terms))
    if isinstance(e, Div):
        return _fresh_variables(e.num) | _fresh_variables(e.den)
    if isinstance(e, Pow):
        return _fresh_variables(e.base) | _fresh_variables(e.exponent)
    return _fresh_variables(e.arg)


def _fresh_is_linear(e):
    try:
        e.linear_coefficients()
    except NonlinearExpressionError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_sum_term(), min_size=1, max_size=6))
def test_memoized_analysis_equals_a_fresh_computation(terms):
    e = sum_exprs(terms)
    fresh_vars, fresh_linear = _fresh_variables(e), _fresh_is_linear(e)
    for _ in range(2):  # computes, then reads the slot
        assert e.variables() == fresh_vars
        assert e.is_linear() is fresh_linear
    # Children answered from their own slots on the way; still correct.
    for t in getattr(e, "terms", ()):
        assert t.variables() == _fresh_variables(t)


def test_memo_survives_immutability():
    e = X * Y + log(X)
    assert e.variables() == {"x", "y"} and not e.is_linear()
    assert e.variables() is e.variables()
    with pytest.raises(AttributeError):
        e.terms = ()
    with pytest.raises(AttributeError):
        e._vars = frozenset()
