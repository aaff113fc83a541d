"""The split fixed-integer subproblem is ``with_bounds(...).reduce_fixed()``.

OA splits its working problem once per solve (``oa._FixedSplit``): rows in
discrete variables only are checked, compiled, at each integer point; every
other row is copied and substituted as before.  The oracle is the unsplit
transform, ``work.with_bounds(integers fixed).reduce_fixed()``: for keyed
feasible and infeasible integer assignments the two must give the same
status, the same reduced problem (variables, rows, SOS1 sets, objective)
and the same fixed values.  The problems are the ledger's nine pipeline
blocks and keyed MINLPs whose integer-only rows are nonlinear (products,
quotients, powers) or equalities.
"""

from __future__ import annotations

import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp.expr import VarRef
from repro.minlp.oa import _epigraph_form, _FixedSplit
from repro.minlp.problem import Domain, Problem
from repro.util.rng import keyed_rng

from tests.minlp.test_compiled_rows import ledger_problem

REPO = pathlib.Path(__file__).resolve().parents[2]


def _shape(problem: Problem):
    return (
        problem.name,
        [(v.name, v.lb, v.ub, v.domain) for v in problem.variables],
        [(c.name, c.body, c.lb, c.ub) for c in problem.constraints],
        [(s.name, s.members, s.weights) for s in problem.sos1_sets],
        problem.objective,
        problem.sense,
    )


def _assert_split_reduces_like_reduce_fixed(work: Problem, values: dict, where=""):
    split = _FixedSplit(work)
    got = split.reduce(values)
    fixing = {
        v.name: (float(round(values[v.name])),) * 2 for v in work.discrete_variables()
    }
    ref = work.with_bounds(fixing).reduce_fixed()
    assert (got is None) == (ref is None), where
    if ref is None:
        return False
    (small, fixed), (ref_small, ref_fixed) = got, ref
    assert _shape(small) == _shape(ref_small), where
    assert list(fixed.items()) == list(ref_fixed.items()), where
    return True


def _assignments(work: Problem, anchor: dict, rng: np.random.Generator, count: int):
    """``anchor`` itself, then draws: each integer moved off it, or anywhere
    in its bounds (most such points violate a row)."""
    yield anchor
    discrete = work.discrete_variables()
    for _ in range(count):
        point = dict(anchor)
        for v in discrete:
            if rng.uniform() < 0.3:
                lo = v.lb if math.isfinite(v.lb) else -50.0
                hi = v.ub if math.isfinite(v.ub) else 50.0
                point[v.name] = float(rng.integers(math.ceil(lo), math.floor(hi) + 1))
        yield point


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


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_ledger_fixings_reduce_like_reduce_fixed(catalogue, monkeypatch, kind, index):
    problem, answer = ledger_problem(catalogue, monkeypatch, kind, index)
    work, _ = _epigraph_form(problem)
    if kind == "cesm":  # the wide sweet-spot rows are the ones checked
        assert len(_FixedSplit(work).checks) >= 2
    rng = keyed_rng(index, "fixed-split", kind)
    outcomes = [
        _assert_split_reduces_like_reduce_fixed(work, point, f"{kind}{index} #{i}")
        for i, point in enumerate(_assignments(work, answer, rng, 12))
    ]
    assert outcomes[0] is True  # the optimum's integers are feasible
    if kind == "cesm":
        assert False in outcomes  # and some draw is not


def _keyed_minlp(key: int) -> tuple[Problem, dict]:
    rng = keyed_rng(key, "fixed-split-minlp")
    p = Problem("keyed")
    k = int(rng.integers(2, 5))
    ns = []
    for i in range(k):
        domain = Domain.BINARY if rng.uniform() < 0.3 else Domain.INTEGER
        ub = 1.0 if domain is Domain.BINARY else float(rng.integers(2, 30))
        p.add_variable(f"n{i}", 0.0 if domain is Domain.BINARY else 1.0, ub, domain)
        ns.append(VarRef(f"n{i}"))
    p.add_variable("t", 0.0, 1e4)
    p.add_variable("s", 2.0, 2.0)  # a pinned continuous variable
    t, s = VarRef("t"), VarRef("s")
    for i, n in enumerate(ns):
        p.add_constraint(f"perf{i}", t - (float(rng.uniform(1, 50)) / (n + 1.0) + s * n), lb=0.0)
    total = sum(ns[1:], ns[0])
    p.add_constraint("budget", total, ub=float(rng.integers(k, 12 * k)))
    p.add_constraint("product", ns[0] * ns[-1] / (ns[0] + 1.0), ub=float(rng.uniform(1, 40)))
    p.add_constraint("power", ns[-1] ** 1.5 - 2.0 * ns[0], lb=float(rng.uniform(-20, 5)))
    p.add_constraint("root", (ns[0] + 1.0) ** 0.5 * 3.0, ub=12.0)
    if rng.uniform() < 0.5:
        p.add_constraint("exact", ns[0] + 2.0 * ns[-1], lb=5.0, ub=5.0)
    p.add_constraint("mixed", t + ns[0] * s, ub=1e4)
    p.set_objective(t)
    anchor = {name: float(rng.integers(1, 10)) for name in p.variable_names}
    anchor["s"], anchor["t"] = 2.0, 0.0
    return p, anchor


@settings(max_examples=60, deadline=None)
@given(key=st.integers(0, 2**31 - 1))
def test_keyed_fixings_reduce_like_reduce_fixed(key):
    problem, anchor = _keyed_minlp(key)
    rng = keyed_rng(key, "fixed-split-points")
    for v in problem.discrete_variables():
        anchor[v.name] = min(max(anchor[v.name], v.lb), v.ub)
    for i, point in enumerate(_assignments(problem, anchor, rng, 6)):
        _assert_split_reduces_like_reduce_fixed(problem, point, f"key={key} #{i}")


def test_the_split_checks_integer_rows_and_keeps_the_rest():
    problem, _ = _keyed_minlp(3)
    split = _FixedSplit(problem)
    kept = {c.name for c in split.free.constraints}
    # Rows in integers only are checked (every node kind folds once its
    # variables are numbers); rows with a continuous variable are kept.
    assert {"budget", "product", "power", "root"}.isdisjoint(kept)
    assert "mixed" in kept
    assert all(name in kept for name in (f"perf{i}" for i in range(2)))
