"""The search tree's answers must not depend on the LP engine.

HiGHS answers every node LP, and every LP optimum is polished toward
integrality before branch-and-bound sees it
(:func:`repro.minlp.linprog.polish_integrality`).  So no answer here is
checked against another LP engine; each is checked against an oracle that
runs no LP at all:

* the OA objective on every instance the end-to-end ledger pins (rebuilt
  from their constants, not imported from ``benchmarks/``): the six Table
  III blocks against the ledger's own pins (``benchmarks/e2e/reference.json``,
  read, never written), the FMO ladder and the 48 serving requests against
  the heap (:func:`repro.core.greedy.greedy_minmax_allocation`, exact on a
  one-budget-row min-max problem);
* the FMO trees with the polish against the same trees without it — the
  polish must never grow a tree (HiGHS's fractional vertices cost the
  ladder ~2x the nodes without it);
* OA against brute force over the finite sets on keyed-RNG random
  allocation specs;
* the polish itself keeps objective, rows and bounds, never adds a fractional
  coordinate, and is idempotent, as a property over random LPs whose optima
  come from HiGHS and from the test-only reference simplex.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cesm.app import CESMApplication
from repro.cesm.grids import eighth_degree, one_degree
from repro.core.builder import AllocationModelBuilder, DiscreteNodeSet
from repro.core.greedy import greedy_minmax_allocation
from repro.core.hslb import HSLBOptimizer
from repro.core.objectives import Objective
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.minlp import linprog
from tests.minlp.brute_reference import solve_brute_force
from repro.minlp.linprog import (
    _POLISH_ROW_TOL,
    LinearProgram,
    _fractional,
    polish_columns,
    polish_integrality,
    solve_lp,
)
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Status
from repro.perf.model import PerformanceModel
from repro.service.request import ComponentSpec, SolveRequest
from repro.service.solver import build_problem
from repro.util.rng import keyed_rng
from tests.minlp.simplex_reference import solve_lp_simplex_reference

REPO = pathlib.Path(__file__).resolve().parents[2]

# -- the ledger's pinned instances, rebuilt from their constants -------------

CATALOGUE_SEED = 20120427
_TAG = {"plan": 1, "system": 4, "family": 5}

TABLE3_BLOCKS = (
    ("1deg-128", "1deg", 128, True),
    ("1deg-2048", "1deg", 2048, True),
    ("eighth-8192", "eighth", 8192, True),
    ("eighth-32768", "eighth", 32768, True),
    ("eighth-8192-freeocn", "eighth", 8192, False),
    ("eighth-32768-freeocn", "eighth", 32768, False),
)
GATHER_CAMPAIGNS = {
    "1deg": (32, 64, 128, 256, 512, 1024, 2048),
    "eighth": (2048, 4096, 8192, 16384, 32768),
}
FMO_LADDER = ((8, 64), (16, 128), (24, 256))
FMO_GATHER = (1, 2, 4, 8, 16, 32)
BASE_CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}
SERVE_FAMILIES = 12
SERVE_BUDGETS = (48, 64, 72, 96)


def _pinned_rng(tag: str, index: int) -> np.random.Generator:
    return np.random.default_rng([CATALOGUE_SEED & 0xFFFFFFFF, _TAG[tag], index])


def _pipeline_case(app, campaign, total_nodes, rng):
    """Gather -> fit -> formulate, as ``HSLBOptimizer.run`` does before
    solving; returns the problem and the fitted models."""
    opt = HSLBOptimizer(app)
    fits = opt.fit(opt.gather(campaign, rng), rng)
    models = {name: f.model for name, f in fits.items()}
    return app.formulate(models, total_nodes), models


def _table3_problem(index: int):
    _, resolution, nodes, constrained = TABLE3_BLOCKS[index]
    config = (
        one_degree() if resolution == "1deg"
        else eighth_degree(constrained_ocean=constrained)
    )
    problem, _ = _pipeline_case(
        CESMApplication(config), GATHER_CAMPAIGNS[resolution], nodes,
        _pinned_rng("plan", index),
    )
    return problem


def _fmo_case(index: int):
    fragments, nodes = FMO_LADDER[index]
    system = protein_like(fragments, _pinned_rng("system", index))
    return _pipeline_case(
        FMOApplication(system), FMO_GATHER, nodes, _pinned_rng("plan", index)
    )


def _fmo_problem(index: int):
    return _fmo_case(index)[0]


def _request_pool() -> list[SolveRequest]:
    pool = []
    for k in range(SERVE_FAMILIES):
        scale = float(_pinned_rng("family", k).uniform(0.8, 2.5))
        components = {
            name: ComponentSpec(
                model=PerformanceModel(a=p["a"] * scale, b=p["b"], c=p["c"], d=p["d"])
            )
            for name, p in BASE_CURVES.items()
        }
        pool.extend(
            SolveRequest(components=components, total_nodes=budget)
            for budget in SERVE_BUDGETS
        )
    return pool


def _solve(problem):
    """OA's optimal answer, checked feasible."""
    sol = solve_minlp_oa(problem).require_ok()
    assert sol.status is Status.OPTIMAL
    assert problem.max_violation(sol.values) <= 1e-5
    return sol


def _heap_makespan(models, total_nodes):
    return greedy_minmax_allocation(models, total_nodes)[1]


@pytest.mark.parametrize(
    "index", range(len(TABLE3_BLOCKS)), ids=[b[0] for b in TABLE3_BLOCKS]
)
def test_table3_objective_is_engine_independent(index):
    pins = json.loads((REPO / "benchmarks/e2e/reference.json").read_text())
    problem = _table3_problem(index)
    reference = pins["objectives"]["cesm_table3"][TABLE3_BLOCKS[index][0]]
    assert _solve(problem).objective == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize(
    "index", range(len(FMO_LADDER)), ids=[f"protein-{f}@{n}" for f, n in FMO_LADDER]
)
def test_fmo_ladder_objective_and_tree_are_engine_independent(index, monkeypatch):
    problem, models = _fmo_case(index)
    polished = _solve(problem)
    assert polished.objective == pytest.approx(
        _heap_makespan(models, FMO_LADDER[index][1]), rel=1e-7
    )
    monkeypatch.setattr(linprog, "polish_integrality", lambda *args: 0)
    raw = _solve(problem)
    assert raw.objective == pytest.approx(polished.objective, rel=1e-7)
    # The polish is part of the one-engine path because of this.  Counts
    # are chaotic in the vertex choice, so only the order is promised.
    assert polished.stats.nodes_explored <= raw.stats.nodes_explored


def test_serving_pool_objectives_are_engine_independent():
    pool = _request_pool()
    assert len(pool) == 48
    for request in pool:
        models = {name: spec.model for name, spec in request.components.items()}
        assert _solve(build_problem(request)).objective == pytest.approx(
            _heap_makespan(models, request.total_nodes), rel=1e-7
        )


# -- keyed-RNG random allocation specs against brute force -------------------


def _random_spec(objective: Objective, sweet_spots: bool, case: int):
    rng = keyed_rng(1304, objective.value, sweet_spots, case)
    total = int(rng.integers(6, 10))
    builder = AllocationModelBuilder(f"spec-{objective.value}-{case}", total)
    for name in ("a", "b", "c"):
        model = PerformanceModel(
            a=float(rng.uniform(20, 400)),
            b=float(rng.uniform(0.0, 0.5)),
            c=float(rng.uniform(1.0, 1.5)),
            d=float(rng.uniform(0.2, 4.0)),
        )
        allowed = None
        if sweet_spots and name != "c":
            picks = rng.choice(range(2, total), size=3, replace=False).tolist()
            allowed = DiscreteNodeSet(tuple(sorted({1, *picks})))
        builder.add_component(name, model, allowed=allowed)
    builder.limit_total_nodes()
    builder.set_objective(objective)
    return builder.build()


@pytest.mark.parametrize("sweet_spots", [False, True], ids=["plain", "sweet-spots"])
@pytest.mark.parametrize("objective", [Objective.MIN_MAX, Objective.MIN_SUM],
                         ids=lambda o: o.value)
def test_random_specs_match_brute_force_on_every_engine(objective, sweet_spots):
    for case in range(4):
        problem = _random_spec(objective, sweet_spots, case)
        brute = solve_brute_force(problem).require_ok()
        assert _solve(problem).objective == pytest.approx(
            brute.objective, rel=1e-6
        ), case


# -- the polish as a property over random LPs --------------------------------


@st.composite
def _polishable_lps(draw):
    """Bounded LPs with integer-bounded, zero-cost discrete columns.

    Returns ``(lp, discrete mask)``.  Rows pass through a random interior
    point so every instance is feasible; an optional equality row exercises
    the column filter.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    discrete = rng.random(n) < 0.6
    c = np.where(discrete, 0.0, rng.normal(size=n))
    if draw(st.booleans()):  # a costed discrete column: must never move
        c[int(rng.integers(n))] = 1.0
    A = np.round(rng.normal(size=(m, n)), 2)
    A[rng.random((m, n)) < 0.3] = 0.0
    var_lb = np.zeros(n)
    var_ub = rng.integers(1, 6, n).astype(float)
    inside = rng.uniform(var_lb, var_ub)
    mid = A @ inside
    row_lb = mid - rng.uniform(0.0, 2.0, m)
    row_ub = mid + rng.uniform(0.0, 2.0, m)
    if draw(st.booleans()):
        row_lb[0] = row_ub[0] = mid[0]
    lp = LinearProgram(
        c=c, A=A, row_lb=row_lb, row_ub=row_ub, var_lb=var_lb, var_ub=var_ub
    )
    return lp, discrete


@settings(max_examples=150, deadline=None)
@given(_polishable_lps(), st.sampled_from([solve_lp, solve_lp_simplex_reference]))
def test_polish_keeps_the_optimum_and_only_removes_fractions(case, engine):
    lp, discrete = case
    res = engine(lp)
    if res.status is not Status.OPTIMAL:
        return
    cols = polish_columns(discrete, lp.c, lp.A, lp.row_lb, lp.row_ub)
    eq = lp.row_lb == lp.row_ub
    assert not (lp.A[eq][:, cols] != 0).any() and not lp.c[cols].any()

    before = res.x.copy()
    x = res.x.copy()
    snapped = polish_integrality(
        x, cols, lp.A, lp.row_lb, lp.row_ub, lp.var_lb, lp.var_ub
    )
    all_discrete = np.flatnonzero(discrete)
    assert snapped == (
        _fractional(before, all_discrete).size - _fractional(x, all_discrete).size
    )
    assert snapped >= 0
    moved = np.flatnonzero(x != before)
    assert set(moved) <= set(cols) and len(moved) == snapped
    assert float(lp.c @ x) == float(lp.c @ before)  # only zero-cost columns move
    assert np.all(x[moved] >= lp.var_lb[moved]) and np.all(x[moved] <= lp.var_ub[moved])
    # Rows: within tolerance, or no further out than the engine's own point.
    act, was = lp.A @ x, lp.A @ before
    slack = 1e-12 * (1.0 + np.abs(act))  # incremental vs. recomputed A @ x
    assert np.all(act >= np.minimum(lp.row_lb - _POLISH_ROW_TOL, was) - slack)
    assert np.all(act <= np.maximum(lp.row_ub + _POLISH_ROW_TOL, was) + slack)

    again = x.copy()
    assert polish_integrality(
        again, cols, lp.A, lp.row_lb, lp.row_ub, lp.var_lb, lp.var_ub
    ) == 0
    assert np.array_equal(again, x)


def test_polish_pulls_the_budget_tight_vertex_onto_an_integral_optimum():
    """min t, t >= 4 - n1, t >= 3 - n2, n1 + n2 <= 5.5 with n1 <= 2.

    t = 2 is forced by n1; every n2 in [1, 3.5] is then optimal.  An engine
    may report either end of such a face; the end where the budget row is
    tight is one more fractional n_i, at almost every node of a tree.
    """
    lp = LinearProgram(
        c=[1.0, 0.0, 0.0],
        A=[[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        row_lb=[4.0, 3.0, -math.inf],
        row_ub=[math.inf, math.inf, 5.5],
        var_lb=[0.0, 0.0, 0.0],
        var_ub=[10.0, 2.0, 5.0],
    )
    cols = polish_columns(
        np.array([False, True, True]), lp.c, lp.A, lp.row_lb, lp.row_ub
    )
    assert cols.tolist() == [1, 2]
    for vertex, snapped, polished in (
        ([2.0, 2.0, 3.5], 1, [2.0, 2.0, 3.0]),
        ([2.0, 2.0, 1.0], 0, [2.0, 2.0, 1.0]),
    ):
        x = np.array(vertex)
        assert polish_integrality(
            x, cols, lp.A, lp.row_lb, lp.row_ub, lp.var_lb, lp.var_ub
        ) == snapped
        assert x.tolist() == polished
