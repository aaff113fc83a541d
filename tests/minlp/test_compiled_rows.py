"""Compiled trees are ``Expr.evaluate``, and served cuts are ``linearize``,
bit for bit.

:meth:`Expr.compiled` generates straight-line Python from a tree; the solver
reads every row value and gradient through it.  The oracle is
``Expr.evaluate`` on the same point: the two must return the same bits, or
raise the same exception type.  The trees are keyed random ones (every node
kind, a power of a whole subtree among them) with their partial
derivatives, and every nonlinear row of the ledger's nine pipeline blocks.

The cut pool builds its tangents from the row's own body, signed
(:class:`Linearizer`), with their coefficients already stored.  The oracle
is ``linearize(±body, point)`` and a fresh walk of the served tree: every
cut the pool serves on the nine blocks, and keyed tangents of the shapes
``sum_exprs`` folds differently.
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
from repro.minlp.cutpool import OACutPool
from repro.minlp.expr import Constant, Div, Expr, VarRef, linearize
from repro.minlp.expr import Linearizer
from repro.util.rng import keyed_rng
from tests.minlp.test_expr import (
    _coefficients_outcome,
    _fresh_linear_coefficients,
    _fresh_variables,
    _memoized,
    _tree_bits,
)

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
    kind = rng.choice(["add", "sub", "mul", "div", "pow"])
    a = _random_tree(rng, depth - 1)
    if kind == "pow":
        return a ** float(rng.choice([2.0, 0.5, -1.0, 1.5, 3.0, 1.2]))
    b = _random_tree(rng, depth - 1)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return Div(a, b) if isinstance(b, Constant) and b.value == 0.0 else a / b


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
    body = 3.0 / x + 2.0 * x**1.5 + y * (x / 10.0 + 1.0) ** 2.0 - y**0.5
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


def _assert_cut_is_linearize(cut: Expr, body: Expr, sign: float, point: dict, where=""):
    """``cut`` is ``linearize(sign * body, point)``, and its stored analysis
    is a fresh walk's, bit for bit."""
    expected = linearize(body if sign > 0 else -body, point)
    assert cut == expected, where
    assert _tree_bits(cut) == _tree_bits(expected), where
    assert _coefficients_outcome(_memoized, cut) == _coefficients_outcome(
        _fresh_linear_coefficients, cut
    ), where
    assert cut.variables() == _fresh_variables(cut), where
    assert cut.is_linear(), where


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_every_served_ledger_cut_is_linearize_of_the_signed_body(
    catalogue, monkeypatch, kind, index
):
    """Every cut the pool builds in a ledger block's own pipeline run — the
    seeds and the lazy rounds' — against ``linearize(±body, point)``."""
    served = []
    cut_for = OACutPool.cut_for

    def recording(pool, con, point):
        misses = pool.stats.misses
        cut = cut_for(pool, con, point)
        if pool.stats.misses > misses:  # built here, at this point
            served.append((con, dict(point), cut))
        return cut

    monkeypatch.setattr(OACutPool, "cut_for", recording)
    ledger_problem(catalogue, monkeypatch, kind, index)
    assert served
    signs = set()
    for con, point, (_, body, lb, ub) in served:
        sign = 1.0 if math.isfinite(con.ub) else -1.0
        signs.add(sign)
        assert (lb, ub) == (-math.inf, sign * (con.ub if sign > 0 else con.lb))
        _assert_cut_is_linearize(body, con.body, sign, point, con.name)
    if kind == "fmo":  # ``T >= a/n + b*n^c + d``: every tangent is signed
        assert signs == {-1.0}


_X, _Y = VarRef("x"), VarRef("y")


def _keyed_tangent(key: int, shape: str) -> tuple[Expr, dict]:
    """A row and a point whose tangent has ``shape``."""
    rng = keyed_rng(key, "tangent-shape", shape)
    a, b = (float(v) for v in rng.uniform(0.5, 40.0, 2))
    x0, y0 = (float(v) for v in rng.uniform(0.5, 8.0, 2))
    if shape == "slope-one":  # ∂/∂x is exactly 1.0 everywhere
        return _X + a / _Y + b * _Y ** 1.5, {"x": x0, "y": y0}
    if shape == "point-zero":  # a linear column expanded at 0.0
        return a * _X + b / _Y, {"x": 0.0, "y": y0}
    if shape == "single-term":  # f(x0) == 0: the slope term alone
        return _X ** 2.0 - x0 * x0, {"x": x0}
    if shape == "flat":  # no slope either: the constant alone
        return a * _X ** 2.0 + b, {"x": 0.0}
    return a / _X + b * _X ** 1.5 + _Y * _X, {"x": x0, "y": y0}  # the common shape


_SHAPES = ("slope-one", "point-zero", "single-term", "flat", "common")


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["le", "ge"])
def test_keyed_tangents_of_every_shape_are_linearize(shape, sign):
    for key in range(20):
        body, point = _keyed_tangent(key, shape)
        cut = Linearizer(body, sign).at(point)
        _assert_cut_is_linearize(cut, body, sign, point, f"{shape} key={key}")


def test_a_ge_row_is_served_from_its_own_body():
    """``g >= lb`` is tangent ``-1`` times ``g``'s numbers: the pool asks the
    row's body for its partials (the memo the root NLP and the fixed LP
    read), and builds no negated tree."""
    from repro.minlp.problem import Constraint

    t, n = VarRef("t"), VarRef("n")
    con = Constraint("row", t - (300.0 / n + 0.25 * n ** 1.5 + 2.0), lb=0.0)
    pool = OACutPool()
    point = {"t": 40.0, "n": 7.0}
    _, cut, _, ub = pool.cut_for(con, point)
    tangent = pool._row(con).tangent
    assert tangent.expr is con.body and tangent.sign == -1.0 and ub == -0.0
    assert sorted(con.body._diffs) == ["n", "t"]
    _assert_cut_is_linearize(cut, con.body, -1.0, point)
