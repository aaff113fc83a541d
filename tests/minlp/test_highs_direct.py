"""The direct HiGHS call is ``linprog(method="highs")``, bit for bit.

``repro.minlp.linprog`` hands each LP to scipy's binding of the HiGHS core
itself, without ``linprog``'s wrapper, and a branch-and-bound tree's node
LPs all go to one HiGHS instance, cleared between solves.  The oracle is
``linprog`` on a fresh instance: every call is replayed through it on the
same row split, and the two must agree on the bytes of ``x``, the
objective, the status and the message.  The calls come from the ledger's
nine pipeline blocks (every HiGHS solve their trees make, most of them on a
reused instance), from keyed random LPs (feasible, infeasible, unbounded,
equality-only and row-free) and from one node engine per keyed LP driven
through bound changes and appended cut rows.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minlp.linprog as linprog_mod
from repro.core.hslb import HSLBOptimizer
from repro.minlp.expr import Constant, VarRef, sum_exprs
from repro.minlp.linprog import (
    IncrementalLPSolver,
    LinearProgram,
    _HighsRows,
    _split_rows,
    solve_lp,
)
from repro.minlp.problem import Problem
from repro.minlp.solution import Status
from repro.util.rng import keyed_rng

REPO = pathlib.Path(__file__).resolve().parents[2]


def _linprog_answer(c, c0, split, var_lb, var_ub):
    """What the LP layer answered when it called ``linprog`` itself."""
    from scipy.optimize import linprog

    A_ub, b_ub, A_eq, b_eq = split
    res = linprog(
        c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=np.column_stack([var_lb, var_ub]), method="highs",
        options={"presolve": False},
    )
    status = linprog_mod._SCIPY_STATUS.get(res.status, Status.ERROR)
    if status is Status.OPTIMAL:
        return status, np.asarray(res.x), float(res.fun) + c0, res.message
    return status, None, math.inf, res.message


def _assert_same(got, ref, where=""):
    status, x, objective, message = ref
    assert got.status is status, (where, got.message, message)
    assert got.message == message, where
    if x is None:
        assert got.x is None and got.objective == math.inf, where
    else:
        assert got.x.tobytes() == x.tobytes(), (where, got.x, x)
        assert got.objective == objective, where


def _csc(split, num_cols):
    """``scipy.sparse.csc_array`` of linprog's stacked rows."""
    from scipy.sparse import csc_array

    A_ub, _, A_eq, _ = split
    blocks = [b for b in (A_ub, A_eq) if b is not None]
    A = csc_array(np.vstack(blocks) if blocks else np.zeros((0, num_cols)))
    return A.indptr, A.indices, A.data


class _Oracle:
    """Replays every ``_run_highs`` call through ``linprog``.

    ``_HighsRows.from_split`` and ``_HighsRows.with_bounds`` are wrapped to
    remember which row split each row model came from (and to check its CSC
    against scipy's), so the replay runs ``linprog`` on exactly the split
    the solve used.  The wrapper around ``_run_highs`` calls it on the
    caller's own engine, so a node solver's reused instance is what is
    checked; ``reused`` counts the calls that found their row model already
    loaded (bounds changed on a cleared solver, no ``passModel``), and
    ``rebound`` those that found its matrix loaded (an OA fixed-integer LP
    at a new fixing: the row bounds changed too).
    """

    def __init__(self, monkeypatch):
        self.calls = self.reused = self.rebound = 0
        self.statuses: set[Status] = set()
        self._splits: dict[int, tuple] = {}
        from_split = _HighsRows.from_split.__func__
        with_bounds = _HighsRows.with_bounds
        run_highs = linprog_mod._run_highs

        def record(rows, split):
            indptr, indices, data = _csc(split, rows.start.size - 1)
            assert rows.start.tobytes() == indptr.astype(np.int32).tobytes()
            assert rows.index.tobytes() == indices.astype(np.int32).tobytes()
            assert rows.value.tobytes() == data.tobytes()
            self._splits[id(rows)] = (rows, split)
            return rows

        def recording_from_split(cls, split, num_cols):
            return record(from_split(cls, split, num_cols), split)

        def recording_with_bounds(rows, split):
            return record(with_bounds(rows, split), split)

        def replaying_run_highs(engine, c, c0, rows, var_lb, var_ub):
            self.calls += 1
            self.reused += engine.rows is rows
            self.rebound += engine.rows is not None and engine.rows is not rows and (
                engine.rows.value is rows.value
            )
            got = run_highs(engine, c, c0, rows, var_lb, var_ub)
            kept, split = self._splits[id(rows)]
            assert kept is rows
            _assert_same(got, _linprog_answer(c, c0, split, var_lb, var_ub),
                         f"call {self.calls}")
            self.statuses.add(got.status)
            return got

        monkeypatch.setattr(_HighsRows, "from_split", classmethod(recording_from_split))
        monkeypatch.setattr(_HighsRows, "with_bounds", recording_with_bounds)
        monkeypatch.setattr(linprog_mod, "_run_highs", replaying_run_highs)


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
def test_every_ledger_highs_call_matches_linprog(catalogue, monkeypatch, kind, index):
    """The pipeline's own run (gather, fit, solve) of each ledger block,
    every HiGHS solve of its tree replayed through ``linprog``."""
    oracle = _Oracle(monkeypatch)
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    plan = HSLBOptimizer(block.make_app()).run(
        block.campaign, block.total_nodes, block.plan_rng(), execute=False
    )
    assert plan.solution.status is Status.OPTIMAL
    assert oracle.calls > 0  # HiGHS answers every node LP
    assert oracle.reused > 0  # ... most of them on the tree's one instance
    if kind == "fmo":  # several fixings: their LPs move only the row bounds
        assert oracle.rebound > 0


#: HiGHS's ``small_matrix_value``: it drops matrix entries no larger.
_HIGHS_DROPS = 1e-9


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_no_ledger_lp_has_an_entry_highs_would_drop(catalogue, monkeypatch, kind, index):
    """HiGHS presolves a matrix entry with ``|a| <= 1e-9`` away and can then
    answer a point that violates the row as written
    (``test_simplex.py::test_tiny_coefficient_is_kept_by_the_simplex``).
    Every coefficient of a node LP comes from the model or from a tangent
    of a fitted curve; this checks that no LP of the ledger's nine blocks,
    solved as the pipeline solves them, holds one that small."""
    smallest = []
    run_highs = linprog_mod._run_highs

    def recording_run_highs(engine, c, c0, rows, var_lb, var_ub):
        if rows.value.size:
            smallest.append(float(np.abs(rows.value).min()))
        return run_highs(engine, c, c0, rows, var_lb, var_ub)

    monkeypatch.setattr(linprog_mod, "_run_highs", recording_run_highs)
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    plan = HSLBOptimizer(block.make_app()).run(
        block.campaign, block.total_nodes, block.plan_rng(), execute=False
    )
    assert plan.solution.status is Status.OPTIMAL
    assert smallest
    assert min(smallest) > _HIGHS_DROPS, min(smallest)


def _keyed_lp(key: int, shape: str) -> LinearProgram:
    rng = keyed_rng(key, "highs-direct", shape)
    n = int(rng.integers(1, 12))
    m = 0 if shape == "no-rows" else int(rng.integers(1, 10))
    A = rng.normal(size=(m, n))
    A[rng.uniform(size=A.shape) < 0.3] = 0.0
    A[rng.uniform(size=A.shape) < 0.05] = -0.0
    c = rng.normal(size=n)
    var_lb = np.where(rng.uniform(size=n) < 0.2, -np.inf, rng.uniform(-2.0, 0.0, n))
    var_ub = np.where(rng.uniform(size=n) < 0.2, np.inf, rng.uniform(1.0, 5.0, n))
    center = A @ np.clip(np.zeros(n), var_lb, var_ub)
    width = rng.uniform(0.5, 3.0, m)
    row_lb = np.where(rng.uniform(size=m) < 0.4, -np.inf, center - width)
    row_ub = np.where(rng.uniform(size=m) < 0.3, np.inf, center + width)
    both_inf = np.isinf(row_lb) & np.isinf(row_ub)
    row_ub[both_inf] = center[both_inf] + width[both_inf]
    eq = rng.uniform(size=m) < 0.25
    if shape == "equality-only":
        eq[:] = True
    row_lb[eq] = row_ub[eq] = center[eq]
    if shape == "infeasible" and m:
        i = int(rng.integers(m))
        A[i] = 0.0
        A[i, int(rng.integers(n))] = 1.0
        row_lb[i], row_ub[i] = 1e3, np.inf  # past every finite upper bound
        var_ub[:] = np.minimum(var_ub, 10.0)
    if shape == "unbounded":
        c[:] = -np.abs(c) - 0.1
        var_ub[:] = np.inf
        A[:, 0] = -np.abs(A[:, 0])  # raising x0 only loosens <= rows
        row_lb[:] = -np.inf
        row_ub[:] = np.abs(row_ub) + 1.0
        row_ub[~np.isfinite(row_ub)] = 1.0
    return LinearProgram(
        c=c, A=A, row_lb=row_lb, row_ub=row_ub, var_lb=var_lb, var_ub=var_ub,
        c0=float(rng.normal()),
    )


_SHAPES = ("mixed", "infeasible", "unbounded", "equality-only", "no-rows")


@settings(max_examples=120, deadline=None)
@given(key=st.integers(0, 2**31 - 1), shape=st.sampled_from(_SHAPES))
def test_keyed_random_lps_match_linprog(key, shape):
    lp = _keyed_lp(key, shape)
    split = _split_rows(lp.A, lp.row_lb, lp.row_ub)
    got = solve_lp(lp)
    _assert_same(got, _linprog_answer(lp.c, lp.c0, split, lp.var_lb, lp.var_ub),
                 f"{shape} key={key}")
    rows = _HighsRows.from_split(split, lp.num_vars)
    indptr, indices, data = _csc(split, lp.num_vars)
    assert rows.start.tolist() == indptr.tolist()
    assert rows.index.tolist() == indices.tolist()
    assert rows.value.tobytes() == data.tobytes()


@pytest.mark.parametrize("shape", _SHAPES)
def test_every_shape_reaches_its_status(shape):
    """The keyed shapes exercise what they are named for: every infeasible
    or unbounded draw is reported so, and the others reach optima."""
    seen = {solve_lp(_keyed_lp(key, shape)).status for key in range(40)}
    if shape == "infeasible":
        assert seen == {Status.INFEASIBLE}
    elif shape == "unbounded":
        assert seen == {Status.UNBOUNDED}
    else:
        assert Status.OPTIMAL in seen


def test_linprog_is_imported_nowhere_in_src():
    """``linprog`` stays the oracle: nothing under ``src/`` imports it."""
    offenders = []
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            if "linprog" in names:
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert offenders == []


# -- one engine per tree ------------------------------------------------------


def _as_problem(lp: LinearProgram) -> Problem:
    """``lp`` as a continuous :class:`Problem`, one constraint per row."""
    problem = Problem("keyed-lp")
    xs = [VarRef(f"x{j}") for j in range(lp.num_vars)]
    for j in range(lp.num_vars):
        problem.add_variable(f"x{j}", lp.var_lb[j], lp.var_ub[j])
    for i, row in enumerate(lp.A):
        body = sum_exprs(float(a) * x for a, x in zip(row, xs) if a != 0.0)
        problem.add_constraint(f"r{i}", body, lp.row_lb[i], lp.row_ub[i])
    problem.set_objective(
        sum_exprs([*(float(a) * x for a, x in zip(lp.c, xs)), Constant(lp.c0)])
    )
    return problem


def _drive_one_engine(key: int, shape: str, rounds: int = 12) -> _Oracle:
    """One :class:`IncrementalLPSolver` on ``_keyed_lp(key, shape)``, driven
    through ``rounds`` bound sets with a cut row appended before every
    fourth; every HiGHS call it makes is replayed through ``linprog``."""
    lp = _keyed_lp(key, shape)
    rng = keyed_rng(key, "highs-engine", shape)
    with pytest.MonkeyPatch.context() as mp:
        oracle = _Oracle(mp)
        node = IncrementalLPSolver(_as_problem(lp))
        for r in range(rounds):
            if r % 4 == 3:
                coeffs = rng.normal(size=lp.num_vars)
                if shape == "unbounded":
                    coeffs[0] = -abs(coeffs[0])  # raising x0 loosens the cut
                body = sum_exprs(float(a) * VarRef(f"x{j}") for j, a in enumerate(coeffs))
                node.add_row(body, -math.inf, float(rng.uniform(1.0, 6.0)))
            bounds = {}
            for j in np.flatnonzero(rng.uniform(size=lp.num_vars) < 0.5):
                lo = max(lp.var_lb[j], rng.uniform(-1.5, 1.0))
                hi = min(lp.var_ub[j], lo + rng.uniform(0.1, 4.0))
                if shape == "unbounded" and j == 0:
                    hi = math.inf
                if lo <= hi:
                    bounds[f"x{j}"] = (lo, hi)
            node.solve(bounds)
    return oracle


@settings(max_examples=40, deadline=None)
@given(
    key=st.integers(0, 2**31 - 1),
    shape=st.sampled_from(("mixed", "infeasible", "unbounded", "equality-only")),
)
def test_one_node_engine_answers_every_bound_set_and_cut_as_linprog(key, shape):
    """A node solver keeps one HiGHS instance for its life: bound changes go
    to a cleared solver, an appended cut row passes the model again, and
    every answer is a fresh ``linprog``'s, byte for byte."""
    oracle = _drive_one_engine(key, shape)
    assert oracle.calls == 12
    assert oracle.reused >= 8


def _drive_one_fixed_engine(key: int, shape: str, rounds: int = 12) -> _Oracle:
    """One :class:`_HighsEngine` re-solving ``_keyed_lp(key, shape)``'s
    matrix and cost under shifted row bounds, as an OA fixed-integer LP is
    re-solved at each fixing; before every fourth round one row changes kind
    (an equality turns ``<=``, any other row an equality), so the split no
    longer stacks to the held matrix.  Every HiGHS call it makes is
    replayed through ``linprog``."""
    lp = _keyed_lp(key, shape)
    rng = keyed_rng(key, "highs-rebound", shape)
    row_lb, row_ub = lp.row_lb.copy(), lp.row_ub.copy()
    with pytest.MonkeyPatch.context() as mp:
        oracle = _Oracle(mp)
        engine = linprog_mod._HighsEngine()
        for r in range(rounds):
            if r % 4 == 3:
                i = int(rng.integers(row_lb.size))
                if row_lb[i] == row_ub[i]:
                    row_lb[i] = -np.inf
                else:
                    row_lb[i] = row_ub[i] = row_ub[i] if np.isfinite(row_ub[i]) else row_lb[i]
            shift = rng.normal(scale=0.5, size=row_lb.size)
            engine.solve(LinearProgram(
                c=lp.c, A=lp.A, row_lb=row_lb - shift, row_ub=row_ub - shift,
                var_lb=lp.var_lb, var_ub=lp.var_ub, c0=lp.c0,
            ))
    return oracle


@settings(max_examples=40, deadline=None)
@given(
    key=st.integers(0, 2**31 - 1),
    shape=st.sampled_from(("mixed", "infeasible", "unbounded", "equality-only")),
)
def test_one_fixed_engine_answers_every_row_shift_as_linprog(key, shape):
    """An engine re-solving one matrix keeps its model: shifted row bounds
    go to a cleared solver, a row that changed kind passes the model again,
    and every answer is a fresh ``linprog``'s, byte for byte."""
    oracle = _drive_one_fixed_engine(key, shape)
    assert oracle.calls == 12
    assert oracle.rebound >= 8


@pytest.mark.parametrize("shape", ("mixed", "infeasible", "unbounded"))
def test_the_engine_property_reaches_every_status(shape):
    """The driven engines, node and fixed-integer alike, answer what their
    shape is named for: optima on mixed LPs, infeasible and unbounded LPs
    through a reused instance."""
    expected = {"mixed": Status.OPTIMAL, "infeasible": Status.INFEASIBLE,
                "unbounded": Status.UNBOUNDED}[shape]
    for drive in (_drive_one_engine, _drive_one_fixed_engine):
        seen = set()
        for key in range(6):
            seen |= drive(key, shape).statuses
        assert expected in seen, drive.__name__


def test_the_status_table_is_linprogs():
    """``_HIGHS_STATUS`` is the table ``_highs_to_scipy_status_message``
    rebuilds per call: every model status, and one it does not know."""
    from scipy.optimize._highspy._core import HighsModelStatus
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    for status in HighsModelStatus.__members__.values():
        code, text = linprog_mod._HIGHS_STATUS.get(
            int(status), linprog_mod._HIGHS_STATUS_UNRECOGNIZED
        )
        ours = code, f"{text}(HiGHS Status {int(status)}: note)"
        assert ours == _highs_to_scipy_status_message(status, "note"), status


@settings(max_examples=200, deadline=None)
@given(key=st.integers(0, 2**31 - 1))
def test_the_optimum_check_is_check_results(key):
    """``_feasible`` accepts an optimum exactly when ``_check_result`` does,
    and a refused one gets its message; points sit within a few tolerances
    of every bound, some NaN."""
    from scipy.optimize._linprog_util import _check_result

    rng = keyed_rng(key, "highs-check")
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 6))
    num_ub = int(rng.integers(0, m + 1))
    tol = linprog_mod._CHECK_TOL
    var_lb = np.where(rng.uniform(size=n) < 0.2, -np.inf, rng.uniform(-2, 0, n))
    var_ub = np.where(rng.uniform(size=n) < 0.2, np.inf, rng.uniform(1, 3, n))
    near = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=n) * tol
    x = np.where(rng.uniform(size=n) < 0.5, var_lb + near, var_ub - near)
    x = np.where(np.isfinite(x), x, 0.5)
    residual = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, 1e3], size=m) * tol
    fun = float(rng.normal())
    if rng.uniform() < 0.1:
        x[int(rng.integers(n))] = np.nan
    if m and rng.uniform() < 0.1:
        residual[int(rng.integers(m))] = np.nan
    if rng.uniform() < 0.05:
        fun = math.nan
    code, message = _check_result(
        x, fun, 0, residual[:num_ub], residual[num_ub:],
        np.column_stack([var_lb, var_ub]), 1e-9, "ok", None,
    )
    feasible = linprog_mod._feasible(x, fun, residual, num_ub, var_lb, var_ub)
    assert feasible is (code == 0)
    if not feasible:
        assert message == linprog_mod._INFEASIBLE_OPTIMUM


def test_an_optimum_without_a_point_gets_check_results_message():
    from scipy.optimize._linprog_util import _check_result

    code, message = _check_result(None, None, 0, None, None, None, 1e-9, "", None)
    assert (code, message) == (4, linprog_mod._NO_SOLUTION)


def test_a_refused_load_passes_the_whole_model_next_time():
    """HiGHS refusing a model (an infinite matrix entry) or a bound set (a
    NaN bound) answers "Model error" and leaves the engine holding no rows,
    so the next solve passes its model whole and answers what ``linprog``
    does."""
    lb, ub = np.array([-np.inf]), np.array([4.0])
    c, var_lb, var_ub = np.array([-1.0, -2.0]), np.zeros(2), np.full(2, 3.0)
    bad = _HighsRows.from_split(_split_rows(np.array([[1.0, np.inf]]), lb, ub), 2)
    split = _split_rows(np.array([[1.0, 1.0]]), lb, ub)
    good = _HighsRows.from_split(split, 2)
    run = linprog_mod._run_highs
    engine = linprog_mod._HighsEngine()

    def refused(rows, lo):
        answer = run(engine, c, 0.0, rows, lo, var_ub)
        assert answer.status is Status.INFEASIBLE
        assert answer.message.endswith("Model error)")
        assert engine.rows is None

    def answered():
        got = run(engine, c, 0.5, good, var_lb, var_ub)
        _assert_same(got, _linprog_answer(c, 0.5, split, var_lb, var_ub))
        assert engine.rows is good

    refused(bad, var_lb)
    answered()
    refused(good, np.array([np.nan, 0.0]))  # refused by changeColsBounds
    answered()
