"""Compiled trees are ``Expr.evaluate``, bit for bit.

:meth:`Expr.compiled` generates straight-line Python from a tree; the solver
reads every row value and gradient through it.  The oracle is
``Expr.evaluate`` on the same point: the two must return the same bits, or
raise the same exception type.  The trees are keyed random ones (every node
kind, a power with a variable exponent among them) with their partial
derivatives, and every nonlinear row of the ledger's nine pipeline blocks.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.hslb as hslb
from repro.core.hslb import HSLBOptimizer
from repro.minlp.expr import Constant, Div, Expr, Unary, VarRef, exp, linearize, log, sqrt
from repro.minlp.expr import Linearizer
from repro.util.rng import keyed_rng

REPO = pathlib.Path(__file__).resolve().parents[2]

_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError, TypeError)


def _outcome(fn, *args):
    """``("value", type, bytes)`` of a result, or ``("raise", type)``.

    Every NaN is one outcome: with two NaN operands CPython's ``+``, ``-``
    and ``*`` return either one's sign bit depending on whether the
    interpreter has specialized the instruction yet, so even two
    ``evaluate`` calls on one tree can disagree there.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = fn(*args)
        except _ERRORS as exc:
            return "raise", type(exc)
    if out != out:
        return "value", type(out), "nan"
    return "value", type(out), np.float64(out).tobytes()


def _assert_compiles_like_evaluate(expr: Expr, point: dict, where=""):
    names = sorted(expr.variables())
    assert _outcome(expr.compiled(), point) == _outcome(expr.evaluate, point), where
    # Read by position: the same values in a list, at shuffled columns.
    order = names[::-1]
    index = {name: j for j, name in enumerate(order)}
    column = [point[name] for name in order]
    got = _outcome(expr.compiled(index), column)
    assert got == _outcome(expr.evaluate, point), where


def _random_tree(rng: np.random.Generator, depth: int) -> Expr:
    names = ("x", "y", "z")
    if depth == 0 or rng.uniform() < 0.2:
        if rng.uniform() < 0.5:
            return VarRef(str(rng.choice(names)))
        return Constant(float(rng.choice([0.0, -1.0, 2.0, rng.uniform(-5.0, 5.0)])))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "varpow", "log", "exp", "sqrt"])
    a = _random_tree(rng, depth - 1)
    if kind in ("log", "exp", "sqrt"):
        # Build the node itself: the helpers fold a constant argument.
        return Unary(str(kind), a) if rng.uniform() < 0.2 else {"log": log, "exp": exp,
                                                                "sqrt": sqrt}[kind](a)
    b = _random_tree(rng, depth - 1)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return Div(a, b) if isinstance(b, Constant) and b.value == 0.0 else a / b
    if kind == "pow":
        return a ** float(rng.choice([2.0, 0.5, -1.0, 1.5, 3.0]))
    return a**b  # a variable exponent


@settings(max_examples=300, deadline=None)
@given(key=st.integers(0, 2**31 - 1), depth=st.integers(1, 5),
       scalar=st.sampled_from(["numpy", "python"]))
def test_keyed_random_trees_and_their_partials_compile_like_evaluate(key, depth, scalar):
    rng = keyed_rng(key, "compiled-rows", depth)
    try:  # constant folding can hit a domain error while building
        expr = _random_tree(rng, depth)
    except _ERRORS:
        assume(False)
    values = rng.choice(
        [0.0, -0.0, 1.0, -2.0, 1e300, math.inf, rng.uniform(-3, 3), rng.uniform(0, 40)],
        size=3,
    )
    cast = np.float64 if scalar == "numpy" else float
    point = {name: cast(v) for name, v in zip(("x", "y", "z"), values)}
    _assert_compiles_like_evaluate(expr, point, f"{expr!r} at {point}")
    for name in sorted(expr.variables()):
        try:
            partial = expr.diff(name)
        except _ERRORS:
            continue
        _assert_compiles_like_evaluate(partial, point, f"d/d{name} {expr!r}")


def test_compiled_code_is_shared_by_shape_and_memoized_on_the_node():
    from repro.minlp.expr import _factory

    x, y = VarRef("x"), VarRef("y")
    f, g = 3.0 / x + 2.0 * x**1.5, 7.0 / y + 0.5 * y**2.5
    assert f._code()[0] == g._code()[0]  # one shape, constants bound apart
    assert f._code() is f._code()
    before = _factory.cache_info().hits
    assert f.compiled()({"x": 4.0}) == f.evaluate({"x": 4.0})
    assert g.compiled()({"y": 4.0}) == g.evaluate({"y": 4.0})
    assert _factory.cache_info().hits >= before + 1
    source = f._code()[0]
    assert "x" in f.variables() and "3.0" not in source and "'x'" not in source


def test_linearizer_at_is_linearize():
    x, y = VarRef("x"), VarRef("y")
    body = 3.0 / x + 2.0 * x**1.5 + y * exp(x / 10.0) - sqrt(y)
    tangent = Linearizer(body)
    for point in ({"x": 2.0, "y": 3.0}, {"x": 0.5, "y": 9.0}, {"x": 7.25, "y": 1.0}):
        assert tangent.at(point) == linearize(body, point)


@pytest.fixture(scope="module")
def catalogue():
    """The ledger's instance definitions, loaded from the harness itself."""
    path = REPO / "benchmarks/e2e/catalogue.py"
    spec = importlib.util.spec_from_file_location("e2e_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        yield module


_BLOCKS = [("cesm", i) for i in range(6)] + [("fmo", i) for i in range(3)]


def ledger_problem(catalogue, monkeypatch, kind, index):
    """The MINLP a ledger block's pipeline run hands to OA, and its answer."""
    seen = []
    solve = hslb.solve_minlp_oa

    def recording(problem, options=None, *, start=None):
        seen.append(problem)
        return solve(problem, options, start=start)

    monkeypatch.setattr(hslb, "solve_minlp_oa", recording)
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    plan = HSLBOptimizer(block.make_app()).run(
        block.campaign, block.total_nodes, block.plan_rng(), execute=False
    )
    (problem,) = seen
    return problem, plan.solution.values


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_every_ledger_nonlinear_row_compiles_like_evaluate(catalogue, monkeypatch, kind, index):
    problem, answer = ledger_problem(catalogue, monkeypatch, kind, index)
    rng = keyed_rng(index, "compiled-ledger", kind)
    lo = np.array([v.lb if math.isfinite(v.lb) else -1e3 for v in problem.variables])
    hi = np.array([v.ub if math.isfinite(v.ub) else 1e3 for v in problem.variables])
    names = problem.variable_names
    points = [answer, dict(zip(names, lo)), dict(zip(names, hi))]
    points += [dict(zip(names, rng.uniform(lo, hi))) for _ in range(4)]
    rows = problem.nonlinear_constraints()
    assert rows
    for con in rows:
        for point in points:
            point = {n: np.float64(point[n]) for n in names}
            _assert_compiles_like_evaluate(con.body, point, con.name)
            for name in sorted(con.body.variables()):
                _assert_compiles_like_evaluate(con.body.diff(name), point, con.name)
