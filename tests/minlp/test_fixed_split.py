"""OA's fixed-integer subproblems answer what the symbolic path answers.

OA splits its working problem once per solve (``oa._FixedSplit``): rows in
discrete variables only are checked, compiled, at each integer point; every
other row is copied and substituted as before.  The oracle is the unsplit
transform, ``work.with_bounds(integers fixed).reduce_fixed()``: for keyed
feasible and infeasible integer assignments the two must give the same
status, the same reduced problem (variables, rows, SOS1 sets, objective)
and the same fixed values.  The problems are the ledger's nine pipeline
blocks and keyed MINLPs whose integer-only rows are nonlinear (products,
quotients, powers) or equalities.

When the remaining rows are affine in the continuous columns, the split
answers each subproblem as one array LP (``oa._FixedLP``).  Its oracle is
``solve_nlp(*split.reduce(values))``: the same status, and the objective
and every value equal to 1e-9, on the ledger's blocks, the keyed MINLPs,
keyed FMO-shaped min-max problems and the three CESM layouts with and
without Tsync and the minor components.
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

from repro.cesm.app import CESMApplication
from repro.cesm.components import one_degree_ground_truth, one_degree_minor_ground_truth
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout
from repro.core.builder import AllocationModelBuilder
from repro.core.objectives import Objective
from repro.minlp.expr import VarRef
import repro.minlp.oa as oa_module
from repro.minlp.nlp import solve_nlp
from repro.minlp.oa import (
    _epigraph_form,
    _FixedSplit,
    _solve_fixed_subproblem,
    _solve_start,
    solve_minlp_oa,
)
from repro.minlp.problem import Domain, Problem
from repro.minlp.solution import Status
from repro.perf.model import PerformanceModel
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


def _assert_lp_answers_like_solve_nlp(split: _FixedSplit, values: dict, where=""):
    """The array LP's answer at ``values`` against ``solve_nlp`` on the
    reduced problem; returns the status."""
    assert split.lp is not None, where
    got = _solve_fixed_subproblem(split, values)
    reduced = split.reduce(values)
    if reduced is None:
        assert got.status is Status.INFEASIBLE, where
        return got.status
    small, fixed = reduced
    ref = solve_nlp(small, fixed)
    assert got.status is ref.status, (where, got.message, ref.message)
    assert got.stats.nlp_solves == ref.stats.nlp_solves, where
    if ref.status.is_ok:
        want = {**ref.values, **fixed}
        assert list(got.values) == list(want), where
        for name, value in want.items():
            assert got.values[name] == pytest.approx(value, rel=1e-9, abs=1e-9), (
                where, name)
        objective = split.work.objective_value(want)
        assert got.objective == pytest.approx(objective, rel=1e-9, abs=1e-9), where
    return got.status


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


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_ledger_fixings_solve_like_solve_nlp(catalogue, monkeypatch, kind, index):
    problem, answer = ledger_problem(catalogue, monkeypatch, kind, index)
    work, _ = _epigraph_form(problem)
    split = _FixedSplit(work)
    rng = keyed_rng(index, "fixed-lp", kind)
    statuses = [
        _assert_lp_answers_like_solve_nlp(split, point, f"{kind}{index} #{i}")
        for i, point in enumerate(_assignments(work, answer, rng, 12))
    ]
    assert statuses[0] is Status.OPTIMAL
    if kind == "cesm":
        assert Status.INFEASIBLE in statuses


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


@settings(max_examples=60, deadline=None)
@given(key=st.integers(0, 2**31 - 1))
def test_keyed_fixings_solve_like_solve_nlp(key):
    problem, anchor = _keyed_minlp(key)
    split = _FixedSplit(problem)
    rng = keyed_rng(key, "fixed-lp-points")
    for v in problem.discrete_variables():
        anchor[v.name] = min(max(anchor[v.name], v.lb), v.ub)
    for i, point in enumerate(_assignments(problem, anchor, rng, 6)):
        _assert_lp_answers_like_solve_nlp(split, point, f"key={key} #{i}")


def _keyed_minmax(key: int) -> Problem:
    """An FMO-shaped problem: min-max over keyed fragment curves."""
    rng = keyed_rng(key, "fixed-lp-minmax")
    k = int(rng.integers(2, 9))
    builder = AllocationModelBuilder("keyed-minmax", int(rng.integers(k, 16 * k)))
    for i in range(k):
        builder.add_component(
            f"frag{i}",
            PerformanceModel(
                a=float(rng.uniform(10, 2000)),
                b=float(rng.uniform(0, 0.5)) * (rng.uniform() < 0.7),
                c=float(rng.uniform(1.0, 2.5)),
                d=float(rng.uniform(0, 20)),
            ),
        )
    builder.limit_total_nodes()
    builder.set_objective(Objective.MIN_MAX)
    return builder.build()


@settings(max_examples=40, deadline=None)
@given(key=st.integers(0, 2**31 - 1))
def test_keyed_minmax_fixings_solve_like_solve_nlp(key):
    work, _ = _epigraph_form(_keyed_minmax(key))
    split = _FixedSplit(work)
    rng = keyed_rng(key, "fixed-lp-minmax-points")
    anchor = {v.name: float(v.lb) for v in work.variables}
    statuses = {
        _assert_lp_answers_like_solve_nlp(split, point, f"key={key} #{i}")
        for i, point in enumerate(_assignments(work, anchor, rng, 8))
    }
    assert Status.OPTIMAL in statuses  # one node each fits every budget


def _cesm_layouts():
    """``(case, problem, the exact scan's assignment)`` for layouts 1-3 on
    1° at 512 nodes, with and without Tsync and the minor components."""
    config = one_degree()
    models = {c: g.model for c, g in one_degree_ground_truth().items()}
    minors = {m: g.model for m, g in one_degree_minor_ground_truth().items()}
    for layout in Layout:
        for tsync in (None, 5.0):
            for with_minors in (False, True):
                app = CESMApplication(
                    config, layout=layout, tsync=tsync,
                    include_minor_components=with_minors,
                )
                fitted = {**models, **minors} if with_minors else models
                yield (
                    (layout.value, tsync, with_minors),
                    app.formulate(fitted, 512),
                    app.direct_start(fitted, 512),
                )


_CESM = list(_cesm_layouts())


@pytest.mark.parametrize(
    "case,problem,answer", _CESM,
    ids=[f"layout{l}-tsync{t}-minors{m}" for (l, t, m), _, _ in _CESM],
)
def test_cesm_layout_fixings_solve_like_solve_nlp(monkeypatch, case, problem, answer):
    work, _ = _epigraph_form(problem)
    split = _FixedSplit(work)
    rng = keyed_rng(case[0], "fixed-lp-cesm", str(case))
    discrete = work.discrete_variables()
    points = list(_assignments(work, answer, rng, 16))
    if not (case[0] == Layout.HYBRID.value and case[1] is not None):  # convex
        # The fixings a cold OA solve visits, feasible ones among them.
        visited = []

        def recording(own_split, values):
            visited.append(dict(values))
            return solve(own_split, values)

        solve = oa_module._solve_fixed_subproblem
        monkeypatch.setattr(oa_module, "_solve_fixed_subproblem", recording)
        solve_minlp_oa(problem).require_ok()
        monkeypatch.undo()
        assert visited
        points += visited
    statuses = []
    for i, point in enumerate(points):
        statuses.append(
            _assert_lp_answers_like_solve_nlp(split, point, f"{case} #{i}")
        )
        outside = dict(point)
        v = discrete[i % len(discrete)]
        outside[v.name] = v.ub + 1.0
        assert _solve_start(split, outside).status is Status.INFEASIBLE
    assert statuses[0] is Status.OPTIMAL  # the scan's answer
    assert Status.INFEASIBLE in statuses


def test_a_start_outside_the_box_is_infeasible_on_both_paths():
    problem, anchor = _keyed_minlp(5)
    split = _FixedSplit(problem)
    n0 = problem.variable("n0")
    for x in (n0.lb - 1.0, n0.ub + 1.0):
        start = {**anchor, "n0": x}
        assert _solve_start(split, start).status is Status.INFEASIBLE
        with pytest.raises(ValueError):
            split.reduce(start)
        with pytest.raises(ValueError):
            _solve_fixed_subproblem(split, start)


def test_a_row_nonlinear_in_a_continuous_column_takes_the_symbolic_path(monkeypatch):
    problem, anchor = _keyed_minlp(5)
    for v in problem.discrete_variables():
        anchor[v.name] = min(max(anchor[v.name], v.lb), v.ub)
    assert _FixedSplit(problem).lp is not None
    t, n0 = VarRef("t"), VarRef("n0")
    problem.add_constraint("curved", t * t - 4.0 * n0, ub=1e6)
    split = _FixedSplit(problem)
    assert split.lp is None
    calls = []

    def counting(small, x0=None):
        calls.append(small)
        return solve_nlp(small, x0)

    monkeypatch.setattr(oa_module, "solve_nlp", counting)
    got = _solve_fixed_subproblem(split, anchor)
    small, fixed = split.reduce(anchor)
    assert calls and not calls[0].is_linear()
    ref = solve_nlp(small, fixed)
    assert got.status is ref.status is Status.OPTIMAL
    assert got.objective == pytest.approx(ref.objective, rel=1e-9)


def test_the_split_checks_integer_rows_and_keeps_the_rest():
    problem, _ = _keyed_minlp(3)
    split = _FixedSplit(problem)
    kept = {c.name for c in split.free.constraints}
    # Rows in integers only are checked (every node kind folds once its
    # variables are numbers); rows with a continuous variable are kept.
    assert {"budget", "product", "power", "root"}.isdisjoint(kept)
    assert "mixed" in kept
    assert all(name in kept for name in (f"perf{i}" for i in range(2)))
