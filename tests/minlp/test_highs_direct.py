"""The direct HiGHS call is ``linprog(method="highs")``, bit for bit.

``repro.minlp.linprog`` hands each LP to scipy's binding of the HiGHS core
itself, without ``linprog``'s wrapper.  The oracle is ``linprog``: every
call is replayed through it on the same row split, and the two must agree
on the bytes of ``x``, the objective, the status and the message.  The calls
come from the ledger's nine pipeline blocks (every HiGHS solve their trees
make) and from keyed random LPs: feasible, infeasible, unbounded,
equality-only and row-free.
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
from repro.minlp.linprog import LinearProgram, _HighsRows, _split_rows, solve_lp
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

    ``_HighsRows.from_split`` is wrapped to remember which row split each
    row model came from (and to check its CSC against scipy's), so the
    replay runs ``linprog`` on exactly the split the solve used.
    """

    def __init__(self, monkeypatch):
        self.calls = 0
        self._splits: dict[int, tuple] = {}
        from_split = _HighsRows.from_split.__func__
        run_highs = linprog_mod._run_highs

        def recording_from_split(cls, split, num_cols):
            rows = from_split(cls, split, num_cols)
            indptr, indices, data = _csc(split, num_cols)
            assert rows.start.tobytes() == indptr.astype(np.int32).tobytes()
            assert rows.index.tobytes() == indices.astype(np.int32).tobytes()
            assert rows.value.tobytes() == data.tobytes()
            self._splits[id(rows)] = (rows, split)
            return rows

        def replaying_run_highs(c, c0, rows, var_lb, var_ub):
            self.calls += 1
            got = run_highs(c, c0, rows, var_lb, var_ub)
            kept, split = self._splits[id(rows)]
            assert kept is rows
            _assert_same(got, _linprog_answer(c, c0, split, var_lb, var_ub),
                         f"call {self.calls}")
            return got

        monkeypatch.setattr(_HighsRows, "from_split", classmethod(recording_from_split))
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

    def recording_run_highs(c, c0, rows, var_lb, var_ub):
        if rows.value.size:
            smallest.append(float(np.abs(rows.value).min()))
        return run_highs(c, c0, rows, var_lb, var_ub)

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
