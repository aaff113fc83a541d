"""OA cut generation: one builder, seeded masters, no duplicate rows.

Every nonlinear row of the paper's models is ``T >= a/n + b*n^c + d``: convex
in one integer, linear in the epigraph variable.  The oracles here:

* a cut served by :class:`OACutPool` (row differentiated once per solve) has
  the coefficients of :func:`repro.minlp.expr.linearize` (differentiated per
  call) to 1e-12, for ``<=`` rows, ``>=`` rows and rows nonlinear in two
  variables, and its key ignores every coordinate the row is linear in;
* the master starts with the tangents at the integer neighbours of the root
  relaxation — floor and ceiling, one cut when they coincide, never a point
  outside the bounds — and OA still equals brute force and NLP-BB;
* after a solve no two master rows are numerically identical, on every
  instance the end-to-end ledger pins (at the parent commit 42 % of a Table
  III sweep's cuts and 56 % of an FMO-ladder sweep's were copies of a row the
  master already held, differing only in the expansion point's ``T``);
* with the integers fixed the subproblem is an LP and is solved as one, with
  the answer SLSQP gave.
"""

import math

import numpy as np
import pytest

from repro.core.builder import AllocationModelBuilder
from repro.core.objectives import Objective
from repro.minlp import BnBOptions, Model, OACutPool, solve, solve_minlp_oa
from repro.minlp import nlp as nlp_module
from repro.minlp import oa as oa_module
from repro.minlp.bnb import BranchAndBound
from repro.minlp.brute import solve_brute_force
from repro.minlp.expr import Linearizer, exp, linearize
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import _Master, solve_minlp_oa_multitree
from repro.minlp.solution import SolveStats, Status
from repro.perf.model import PerformanceModel
from repro.service.solver import build_problem
from repro.util.rng import keyed_rng
from tests.minlp.test_engine_independence import (
    FMO_LADDER,
    TABLE3_BLOCKS,
    _fmo_problem,
    _random_spec,
    _request_pool,
    _table3_problem,
)

# -- the one cut builder against the uncached oracle --------------------------


def _row_model():
    """A ``>=`` epigraph row, a ``<=`` row and two rows nonlinear in x and y."""
    m = Model("rows")
    n = m.integer_var("n", 1, 40)
    x = m.integer_var("x", 0, 6)
    y = m.integer_var("y", 0, 6)
    t = m.var("t", lb=0.0)
    m.add(t >= 120.0 / n + 0.4 * n**1.3 + 2.0, name="ge")
    m.add(90.0 / n + 0.1 * n - t <= 0.0, name="le")
    m.add(exp(0.3 * x + 0.2 * y) - t <= 0.0, name="exp2")
    m.add(x * x + y * y - 3.0 * t <= 5.0, name="sq2")
    m.minimize(t)
    return m.build()


def _constraint(problem, name):
    return next(c for c in problem.constraints if c.name == name)


def _affine(expr, names):
    coeffs, const = expr.linear_coefficients()
    assert set(coeffs) <= set(names)
    return np.array([coeffs.get(v, 0.0) for v in names] + [const])


@pytest.mark.parametrize("name", ["ge", "le", "exp2", "sq2"])
def test_pool_cut_equals_linearize(name):
    problem = _row_model()
    con = _constraint(problem, name)
    names = sorted(con.body.variables())
    pool = OACutPool()
    rng = keyed_rng(1507, name)
    for _ in range(25):
        point = {"n": float(rng.uniform(1, 40)), "x": float(rng.uniform(0, 6)),
                 "y": float(rng.uniform(0, 6)), "t": float(rng.uniform(0, 300))}
        _, body, lb, ub = pool.cut_for(con, point)
        if math.isfinite(con.ub):
            oracle, bound = linearize(con.body, point), con.ub
        else:  # g >= lb is served as -g <= -lb
            oracle, bound = linearize(-con.body, point), -con.lb
        assert (lb, ub) == (-math.inf, bound)
        got, want = _affine(body, names), _affine(oracle, names)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # A tangent touches the row at its own point.
        assert body.evaluate(point) == pytest.approx(
            (con.body if math.isfinite(con.ub) else -con.body).evaluate(point),
            rel=1e-12, abs=1e-9,
        )


def test_key_uses_only_the_nonlinear_coordinates():
    problem = _row_model()
    pool = OACutPool()
    ge, exp2, sq2 = (_constraint(problem, n) for n in ("ge", "exp2", "sq2"))
    assert pool.nonlinear_variables(ge) == ("n",)
    assert pool.nonlinear_variables(exp2) == ("x", "y")
    assert pool.nonlinear_variables(sq2) == ("x", "y")

    at = {"n": 7.0, "x": 1.0, "y": 2.0, "t": 0.0}
    first = pool.cut_for(ge, at)
    again = pool.cut_for(ge, {**at, "t": 55.5})  # differs in T alone
    assert again[0] == first[0] and again[1] is first[1]
    assert pool.stats.hits == 1 and len(pool) == 1
    assert pool.cut_for(ge, {**at, "n": 8.0})[0] != first[0]

    both = pool.cut_for(sq2, at)
    assert pool.cut_for(sq2, {**at, "t": 9.0})[0] == both[0]
    assert pool.cut_for(sq2, {**at, "y": 3.0})[0] != both[0]
    assert pool.cut_for(sq2, {**at, "x": 2.0})[0] != both[0]


def test_linearizer_differentiates_once(monkeypatch):
    problem = _row_model()
    body = _constraint(problem, "le").body
    tangent = Linearizer(body)
    monkeypatch.setattr(type(body), "diff", None)  # any further diff would raise
    for n in (2.0, 3.0, 11.5):
        point = {"n": n, "t": 1.0}
        assert tangent.at(point).evaluate(point) == pytest.approx(body.evaluate(point))


# -- seeding ------------------------------------------------------------------


def _seeded(problem, root):
    nonlin = list(problem.nonlinear_constraints())
    pool = OACutPool()
    master = _Master(problem, nonlin, pool, SolveStats())
    return master, master.seed(root)


def _univariate(lb=1, ub=40):
    m = Model("uni")
    n = m.integer_var("n", lb, ub)
    t = m.var("t", lb=0.0)
    m.add(t >= 100.0 / n + 2.0 * n, name="row")
    m.minimize(t)
    return m.build()


def test_seeds_are_the_floor_and_ceiling_tangents():
    problem = _univariate()
    master, seeded = _seeded(problem, {"n": 7.3, "t": 28.3})
    assert seeded == 2
    assert len(master.installed) == 3  # root tangent + two seeds
    row = _constraint(problem, "row")
    for n in (7.0, 8.0):
        # Exact at the integer: the tangent there is the row itself.
        exact = 100.0 / n + 2.0 * n
        tight = [
            c for c in master.problem.constraints
            if c.name.startswith("oa_")
            and abs(c.body.evaluate({"n": n, "t": exact}) - c.ub) < 1e-9
        ]
        assert len(tight) == 1, n
        assert row.violation({"n": n, "t": exact}) <= 1e-9


def test_integral_root_gets_one_cut():
    master, seeded = _seeded(_univariate(), {"n": 7.0, "t": 28.3})
    assert seeded == 0 and len(master.installed) == 1  # floor = ceil = root


def test_bracket_is_clipped_to_the_bounds():
    """``n`` at ``min_nodes``: no tangent below it (an a/n row never sees 0)."""
    master, seeded = _seeded(_univariate(lb=1), {"n": 1.0, "t": 102.0})
    assert seeded == 0 and len(master.installed) == 1
    # A fractional bound above the root's floor: the floor point moves onto it.
    problem = _univariate(lb=1.5)
    master, seeded = _seeded(problem, {"n": 1.7, "t": 62.0})
    assert seeded == 2
    pool_points = {
        round(-c.body.linear_coefficients()[0]["n"], 6)
        for c in master.problem.constraints if c.name.startswith("oa_")
    }
    slope = lambda n: round(-(-100.0 / n**2 + 2.0), 6)  # noqa: E731
    assert pool_points == {slope(1.7), slope(1.5), slope(2.0)}


def test_row_with_two_integers_gets_all_floor_and_all_ceiling():
    problem = _row_model()
    root = {"n": 9.5, "x": 1.4, "y": 2.6, "t": 14.0}
    master, seeded = _seeded(problem, root)
    # ge, le: 2 each; exp2, sq2: 2 each (not 2^2).
    assert seeded == 8
    assert len(master.installed) == 12
    sq2 = [c for c in master.problem.constraints if c.name.startswith("oa_sq2_")]
    grads = sorted(
        (c.body.linear_coefficients()[0].get("x", 0.0),
         c.body.linear_coefficients()[0].get("y", 0.0))
        for c in sq2
    )
    assert grads == pytest.approx([(2.0, 4.0), (2.8, 5.2), (4.0, 6.0)])


def test_continuous_nonlinear_coordinates_stay_at_the_root():
    m = Model("mixed")
    n = m.integer_var("n", 1, 20)
    w = m.var("w", lb=0.5, ub=4.0)
    t = m.var("t", lb=0.0)
    m.add(t >= 50.0 / n + w * w, name="row")
    m.add(w >= 1.25)
    m.minimize(t)
    problem = m.build()
    master, seeded = _seeded(problem, {"n": 3.5, "w": 1.25, "t": 16.0})
    assert seeded == 2
    for c in master.problem.constraints:
        if c.name.startswith("oa_"):
            assert c.body.linear_coefficients()[0]["w"] == pytest.approx(2.5)
    sol = solve_minlp_oa(problem)
    assert sol.objective == pytest.approx(solve_brute_force(problem).objective)


# -- exactness with seeding on -------------------------------------------------


def _agree_with_oracles(problem):
    oa = solve_minlp_oa(problem).require_ok()
    assert oa.status is Status.OPTIMAL
    brute = solve_brute_force(problem).require_ok()
    nlpbb = solve_minlp_nlpbb(problem).require_ok()
    multi = solve_minlp_oa_multitree(problem).require_ok()
    assert oa.objective == pytest.approx(brute.objective, rel=1e-6)
    assert nlpbb.objective == pytest.approx(brute.objective, rel=1e-6)
    assert multi.objective == pytest.approx(brute.objective, rel=1e-6)
    assert problem.max_violation(oa.values) <= 1e-5
    return oa


@pytest.mark.parametrize("sweet_spots", [False, True], ids=["plain", "sweet-spots"])
@pytest.mark.parametrize("objective", [Objective.MIN_MAX, Objective.MIN_SUM],
                         ids=lambda o: o.value)
def test_random_specs_match_brute_force_and_nlpbb(objective, sweet_spots):
    for case in range(4):
        _agree_with_oracles(_random_spec(objective, sweet_spots, case))


def _floor_spec(case: int):
    """Components whose relaxed optimum sits on ``min_nodes`` or ``max_nodes``."""
    rng = keyed_rng(1507, "floors", case)
    total = int(rng.integers(9, 13))
    builder = AllocationModelBuilder(f"floors-{case}", total)
    for name in ("a", "b", "c"):
        model = PerformanceModel(
            a=float(rng.uniform(2, 300)),
            b=float(rng.uniform(0.0, 2.0)),
            c=float(rng.uniform(1.0, 1.5)),
            d=float(rng.uniform(0.2, 4.0)),
        )
        lo = int(rng.integers(1, 4))
        builder.add_component(
            name, model, min_nodes=lo, max_nodes=lo + int(rng.integers(0, 4))
        )
    builder.limit_total_nodes()
    builder.set_objective(Objective.MIN_MAX)
    return builder.build()


def test_specs_pinned_to_their_bounds_match_brute_force_and_nlpbb():
    for case in range(6):
        _agree_with_oracles(_floor_spec(case))


def test_bound_clipped_root_needs_one_cut_and_no_branching(last_solve):
    """n = 8 is the relaxed optimum (sqrt(50) is outside) and the answer."""
    problem = _univariate(lb=8, ub=12)
    sol = solve_minlp_oa(problem).require_ok()
    assert sol.values["n"] == 8.0
    assert sol.objective == pytest.approx(28.5)
    assert sol.stats.cuts_added == len(last_solve["pool"]) == 1
    assert len(_master_rows(last_solve["tree"])) == 1
    assert sol.stats.nodes_explored == 1


# -- no duplicate master rows --------------------------------------------------


@pytest.fixture
def last_solve(monkeypatch):
    """The per-solve cut pool and the tree of the latest OA solve."""
    seen = {}

    class Pool(OACutPool):
        def __init__(self):
            super().__init__()
            seen["pool"] = self

    class Tree(BranchAndBound):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["tree"] = self

    monkeypatch.setattr(oa_module, "OACutPool", Pool)
    monkeypatch.setattr(oa_module, "BranchAndBound", Tree)
    return seen


def _master_rows(tree):
    """Every cut the master LP holds: the seeds it was built with, then the
    lazy cuts the tree installed."""
    seeded = [
        (c.name, c.body, c.lb, c.ub)
        for c in tree.problem.constraints if c.name.startswith("oa_")
    ]
    return seeded + list(tree._cuts)


def _duplicate_rows(cuts):
    """Pairs of cuts whose scaled ``(coefficients, rhs)`` agree to 1e-9."""
    names = sorted({v for _, body, _, _ in cuts for v in body.variables()})
    rows = []
    for _, body, _, ub in cuts:
        coeffs, const = body.linear_coefficients()
        row = np.array([coeffs.get(v, 0.0) for v in names] + [ub - const])
        rows.append(row / np.abs(row[:-1]).max())
    return [
        (cuts[i][0], cuts[j][0])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if np.allclose(rows[i], rows[j], rtol=1e-9, atol=1e-12)
    ]


def _solve_and_check_rows(spy, problem):
    sol = solve_minlp_oa(problem).require_ok()
    cuts = _master_rows(spy["tree"])
    assert len({name for name, *_ in cuts}) == len(cuts)
    # Every cut the pool built went into the master, once.
    assert len(cuts) == spy["pool"].stats.misses
    assert _duplicate_rows(cuts) == []
    return sol


def test_duplicate_detector_sees_a_t_only_copy():
    con = _constraint(_univariate(), "row")
    a = ("a", linearize(-con.body, {"n": 5.0, "t": 30.0}), -math.inf, 0.0)
    b = ("b", linearize(-con.body, {"n": 5.0, "t": 77.0}), -math.inf, 0.0)
    c = ("c", linearize(-con.body, {"n": 6.0, "t": 30.0}), -math.inf, 0.0)
    assert _duplicate_rows([a, b, c]) == [("a", "b")]


@pytest.mark.parametrize(
    "index", range(len(TABLE3_BLOCKS)), ids=[b[0] for b in TABLE3_BLOCKS]
)
def test_table3_masters_hold_no_duplicate_rows(index, last_solve):
    _solve_and_check_rows(last_solve, _table3_problem(index))


@pytest.mark.parametrize(
    "index", range(len(FMO_LADDER)), ids=[f"protein-{f}@{n}" for f, n in FMO_LADDER]
)
def test_fmo_ladder_masters_hold_no_duplicate_rows(index, last_solve):
    _solve_and_check_rows(last_solve, _fmo_problem(index))


def test_serving_pool_masters_hold_no_duplicate_rows_and_stay_short(last_solve):
    """The serving tier answers these min-max requests with the heap; their
    MINLPs stay the pinned instances the OA master is kept short on."""
    def work(sol):
        return sol.stats.nodes_explored + sol.stats.nlp_solves

    problems = [build_problem(request) for request in _request_pool()]
    iterations = sum(
        work(_solve_and_check_rows(last_solve, problem)) for problem in problems
    )
    assert iterations == sum(work(solve(problem)) for problem in problems)
    # 835 before masters were seeded, 427 with; counts are chaotic in the cut
    # set, so the guard is a ceiling, not a number.
    assert iterations <= 520


# -- fixed integers: an LP is an LP ------------------------------------------


def _fixed_at_optimum(problem):
    sol = solve_minlp_oa(problem).require_ok()
    return problem.with_bounds(
        {v.name: (round(sol.values[v.name]),) * 2 for v in problem.discrete_variables()}
    )


@pytest.mark.parametrize("build, index", [(_table3_problem, 0), (_table3_problem, 2),
                                          (_fmo_problem, 1)])
def test_fixed_integer_subproblem_is_solved_as_an_lp(build, index, tracer, monkeypatch):
    fixed = _fixed_at_optimum(build(index))
    tracer.reset()
    as_lp = solve_nlp(fixed).require_ok()
    (nlp_span,) = [s for s, _ in tracer.walk() if s.name == "minlp.nlp"]
    assert nlp_span.tags["linear"] is True
    assert as_lp.stats.nlp_solves == 1

    monkeypatch.setattr(nlp_module, "_lp_run", lambda small, fallback: fallback)
    as_nlp = solve_nlp(fixed).require_ok()
    assert as_lp.objective == pytest.approx(as_nlp.objective, rel=1e-7, abs=1e-7)
    assert fixed.max_violation(as_lp.values) <= 1e-6


def test_infeasible_fixing_is_still_infeasible(monkeypatch):
    m = Model("capped")
    n = m.integer_var("n", 1, 10)
    t = m.var("t", lb=0.0, ub=5.0)
    m.add(t >= 100.0 / n + 2.0 * n)
    m.minimize(t)
    fixed = m.build().with_bounds({"n": (4.0, 4.0)})  # needs t >= 33
    as_lp = solve_nlp(fixed)
    assert as_lp.status is Status.INFEASIBLE and as_lp.stats.nlp_solves == 1
    monkeypatch.setattr(nlp_module, "_lp_run", lambda small, fallback: fallback)
    assert solve_nlp(fixed).status is Status.INFEASIBLE


def test_unbounded_lp_is_left_to_the_nlp_engine(monkeypatch):
    m = Model("open")
    x = m.var("x", lb=0.0)
    y = m.var("y", lb=0.0, ub=1.0)
    m.add(x - y >= 0.0)
    m.minimize(-x)
    as_lp = solve_nlp(m.build())
    monkeypatch.setattr(nlp_module, "_lp_run", lambda small, fallback: fallback)
    as_nlp = solve_nlp(m.build())
    assert as_lp.status is as_nlp.status


# -- what the span says -------------------------------------------------------


def test_oa_span_says_how_the_master_was_fed(tracer, last_solve):
    problem = _fmo_problem(0)
    nonlin = len(problem.nonlinear_constraints())
    sol = solve_minlp_oa(problem).require_ok()
    tags = tracer.find("minlp.oa").tags
    assert 0 < tags["cuts_seeded"] <= 2 * nonlin
    assert tags["cut_pool_hits"] == last_solve["pool"].stats.hits
    # The master starts with one root tangent per row plus the seeds.
    tree = last_solve["tree"]
    built_with = [c for c in tree.problem.constraints if c.name.startswith("oa_")]
    assert len(built_with) == nonlin + tags["cuts_seeded"]
    assert 1 <= tags["lazy_rounds"] <= sol.stats.nodes_explored
    # Each lazy round solves one fixed-integer subproblem; the root is the rest.
    assert tags["lazy_rounds"] == sol.stats.nlp_solves - 1
