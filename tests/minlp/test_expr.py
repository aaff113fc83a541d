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
    Relation,
    VarRef,
    as_expr,
    linearize,
    prod_exprs,
    sum_exprs,
)
from repro.minlp.expr import _add, _pow

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


def test_rpow_and_rtruediv():
    """A number over an expression is a quotient; a number to an expression's
    power is not in the language (an exponent is the fitted ``c``)."""
    with pytest.raises(TypeError):
        2.0**X
    assert (1.0 / X).evaluate({"x": 4.0}) == pytest.approx(0.25)


def test_variable_exponents_are_refused():
    with pytest.raises(TypeError, match="exponent"):
        X**Y
    with pytest.raises(TypeError, match="exponent"):
        X ** (Y + 1.0)
    with pytest.raises(TypeError, match="exponent"):
        _pow(Constant(2.0), X)
    with pytest.raises(TypeError, match="exponent"):
        Pow(X, Y)


def test_a_numeric_exponent_builds_and_compiles_as_it_always_did():
    """``x ** 1.5`` is the tree, and the generated source, it was while the
    language still took variable exponents."""
    e = X**1.5
    assert type(e) is Pow and e._key() == ("pow", ("var", "x"), ("const", 1.5))
    source, consts, names = e._code()
    assert source == "\n".join([
        "def make(c, p):",
        "    c0, = c",
        "    p0, = p",
        "    def f(v):",
        "        x0 = v[p0]",
        "        t0 = _pow(x0, c0)",
        "        return t0",
        "    return f",
    ])
    assert (consts, names) == ((1.5,), ("x",))
    assert repr((3.0 / X + 2.0 * X**1.5 + 1.0).diff("x")) == (
        "((-1 * (3 / (x ** 2))) + (3 * (x ** 0.5)))"
    )


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
    e = X * Y + 1.0 / X + 3
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
        X**-0.5,
        (X + Y) ** 2.5,
        1.0 / (X * X + 1.0),
        (X * 0.1 + 1.0) ** 3.0,
        (X + Y) ** 0.5,
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
    e = (X * Y + k) ** 2 / (Y + 6.0) + (X * 0.2 + 1.0) ** 1.5
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
    for e in (X * Y, X**2, 1 / X, Y / (X + 1.0)):
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
_EXPONENTS = [1.0, 2.0, 0.5, -1.0, 1.5]


@st.composite
def _sum_term(draw, depth=2):
    kind = draw(st.sampled_from(
        ("const", "var", "scaled", "add", "nested", "mul", "div", "pow", "powsum")
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
    exponent = Constant(draw(st.sampled_from(_EXPONENTS)))
    if kind == "pow":  # built directly: an exponent of 1 stays a node
        return Pow(draw(st.sampled_from(_Z)), exponent)
    return Pow(_add(draw(st.sampled_from(_Z)), draw(_sum_term(depth - 1))), exponent)


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
    assert isinstance(e, Pow)
    return _fresh_variables(e.base) | _fresh_variables(e.exponent)


def _fresh_linear_coefficients(e):
    """``linear_coefficients()`` walked from scratch, touching no memo: sums
    in term order, a product affine when at most one factor is not a
    Constant, a quotient by a Constant, a power of exponent 1."""
    if isinstance(e, Constant):
        return {}, e.value
    if isinstance(e, VarRef):
        return {e.name: 1.0}, 0.0
    if isinstance(e, Add):
        coeffs, const = {}, 0.0
        for t in e.terms:
            c, k = _fresh_linear_coefficients(t)
            const += k
            for name, v in c.items():
                coeffs[name] = coeffs.get(name, 0.0) + v
        return coeffs, const
    if isinstance(e, Mul):
        scale, rest = 1.0, []
        for t in e.terms:
            if isinstance(t, Constant):
                scale *= t.value
            else:
                rest.append(t)
        if not rest:
            return {}, scale
        if len(rest) > 1:
            raise NonlinearExpressionError("product")
        c, k = _fresh_linear_coefficients(rest[0])
        return {name: v * scale for name, v in c.items()}, k * scale
    if isinstance(e, Div):
        if not isinstance(e.den, Constant):
            raise NonlinearExpressionError("quotient")
        c, k = _fresh_linear_coefficients(e.num)
        return {name: v / e.den.value for name, v in c.items()}, k / e.den.value
    assert isinstance(e, Pow)
    if e.exponent.value != 1.0:
        raise NonlinearExpressionError("power")
    return _fresh_linear_coefficients(e.base)


def _fresh_is_linear(e):
    try:
        _fresh_linear_coefficients(e)
    except NonlinearExpressionError:
        return False
    return True


def _rebuilt(e):
    """A structurally equal copy of ``e`` whose every node is new, so no
    node of it holds a memo."""
    if isinstance(e, (Add, Mul)):
        return type(e)(tuple(map(_rebuilt, e.terms)))
    if isinstance(e, Div):
        return Div(_rebuilt(e.num), _rebuilt(e.den))
    if isinstance(e, Pow):
        return Pow(_rebuilt(e.base), e.exponent)
    return e  # a Constant or VarRef holds no memo


def _bits(value):
    """A float's bytes, or one token for every NaN (CPython's arithmetic
    does not fix a NaN's sign bit)."""
    return "nan" if value != value else np.float64(value).tobytes()


def _tree_bits(e):
    """``e``'s structure with every constant as :func:`_bits`."""
    if isinstance(e, Constant):
        return ("const", _bits(e.value))
    if isinstance(e, VarRef):
        return ("var", e.name)
    if isinstance(e, (Add, Mul)):
        return (type(e).__name__, *map(_tree_bits, e.terms))
    if isinstance(e, Div):
        return ("div", _tree_bits(e.num), _tree_bits(e.den))
    return ("pow", _tree_bits(e.base), _tree_bits(e.exponent))


def _coefficients_outcome(analyse, e):
    """``(coeffs as bits, in order, constant bits)``, or the error's type."""
    try:
        coeffs, const = analyse(e)
    except NonlinearExpressionError as exc:
        return type(exc)
    return [(name, _bits(v)) for name, v in coeffs.items()], _bits(const)


def _memoized(e):
    return e.linear_coefficients()


def _diff_outcome(e, var):
    try:
        return _tree_bits(e.diff(var))
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_sum_term(), min_size=1, max_size=6))
def test_memoized_analysis_equals_a_fresh_computation(terms):
    e = sum_exprs(terms)
    fresh_vars, fresh_linear = _fresh_variables(e), _fresh_is_linear(e)
    fresh_coeffs = _coefficients_outcome(_fresh_linear_coefficients, e)
    names = sorted(fresh_vars) + ["w"]  # and one the tree does not hold
    fresh_diffs = {v: _diff_outcome(_rebuilt(e), v) for v in names}
    for _ in range(2):  # computes, then reads the slot
        assert e.variables() == fresh_vars
        assert e.is_linear() is fresh_linear
        assert _coefficients_outcome(_memoized, e) == fresh_coeffs
        for v in names:
            assert _diff_outcome(e, v) == fresh_diffs[v], v
    for v in names:  # a repeated diff is the memoized tree itself
        if not isinstance(fresh_diffs[v], type):
            assert e.diff(v) is e.diff(v)
    if fresh_linear:  # the caller owns the dict it is handed
        coeffs, _ = e.linear_coefficients()
        coeffs.clear()
        coeffs["w"] = 1.0
        assert _coefficients_outcome(_memoized, e) == fresh_coeffs
    else:
        for _ in range(2):
            with pytest.raises(NonlinearExpressionError):
                e.linear_coefficients()
        # The verdict is kept as its message: a stored exception would pin
        # the frames of its traceback.
        memo = getattr(e, "_affine", None)
        assert isinstance(memo, str)
    # Only the node asked keeps a memo; its children were walked without.
    for t in getattr(e, "terms", ()):
        assert getattr(t, "_diffs", None) is None
        assert getattr(t, "_affine", None) is None
        assert t.variables() == _fresh_variables(t)


def test_a_nonlinear_verdict_is_kept_as_its_message():
    e = X * Y + 1.0 / X
    messages = []
    for _ in range(2):
        with pytest.raises(NonlinearExpressionError) as info:
            e.linear_coefficients()
        messages.append(str(info.value))
    assert messages == ["nonlinear product: (x * y)"] * 2
    assert e._affine == messages[0] and not e.is_linear()
    assert e.diff("x") is e.diff("x")
    assert all(getattr(t, "_diffs", None) is None for t in e.terms)


def test_memo_survives_immutability():
    e = X * Y + 1.0 / X
    assert e.variables() == {"x", "y"} and not e.is_linear()
    assert e.variables() is e.variables()
    with pytest.raises(AttributeError):
        e.terms = ()
    with pytest.raises(AttributeError):
        e._vars = frozenset()
