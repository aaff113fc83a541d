"""The greedy rung, proven: feasible, exact where it says so, pinned.

The service's ``greedy_outcome`` and the pipeline's ``fallback_allocation``
are one module (:mod:`repro.core.greedy`: the heap for min-max, level sets
for max-min, marginal gain for min-sum).  It is checked here against values
— a pinned table — and against solvers that share no code with it (OA,
NLP-B&B, brute force) on keyed-RNG requests and on both pinned serving
pools, so a later edit is not checked against itself.  ``solve_request`` answers every objective with
this module too, so the exact side of every comparison is OA on
``build_problem(request)`` (:func:`_oa`), never ``solve_request``.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.greedy import (
    greedy_minmax_allocation,
    maxmin_allocation,
    minsum_allocation,
)
from repro.core.objectives import Objective
from repro.fmo.schedulers import hslb_schedule
from repro.minlp import solve_minlp_nlpbb, solve_minlp_oa
from repro.perf.model import PerformanceModel
from repro.service import ComponentSpec, SolveRequest
from repro.service.loadgen import TraceSpec, request_pool
from repro.service.solver import (
    build_problem,
    greedy_outcome,
    solve_request,
    validate_outcome,
)
from repro.util.rng import keyed_rng
from tests.minlp.brute_reference import solve_brute_force
from tests.minlp.test_engine_independence import _request_pool as ledger_pool

OBJECTIVES = tuple(o.value for o in Objective)


def _oa(request: SolveRequest):
    """The independent oracle: outer approximation on the request's MINLP."""
    return solve_minlp_oa(build_problem(request), request.options).require_ok()


# -- the pinned table --------------------------------------------------------


def _pinned_spec(i: int) -> SolveRequest:
    """Spec ``i`` of the table: 1-6 components, floors on odd ``i``, caps on
    two components in three, objectives in rotation."""
    comps = {}
    for j in range(1 + i % 6):
        lo = 1 + (i + 2 * j) % 4 if i % 2 else 1
        hi = None if (i + j) % 3 == 0 else lo + 3 + (i * (j + 1)) % 17
        model = PerformanceModel(
            a=100.0 * (j + 1) * (1 + i % 5),
            b=(0.0, 0.05, 0.5)[(i + j) % 3],
            c=1.0 + 0.25 * ((i + j) % 4),
            d=j + 0.5 * (i % 3),
        )
        comps[f"c{j}"] = ComponentSpec(model=model, min_nodes=lo, max_nodes=hi)
    total = sum(s.min_nodes for s in comps.values()) + 5 + 7 * i
    return SolveRequest(
        components=comps, total_nodes=total, objective=OBJECTIVES[i % 3]
    )


#: Per spec: the service rung's (allocation, objective) under the request's
#: bounds and objective, then the min-max heap's (allocation, makespan) on the
#: bare curves.  Every objective and every core makespan is the exact optimum
#: (the tests below check them against OA, NLP-B&B and brute force).
#: Specs 1, 7, 13 and 19 are max-min requests whose caps sum to less than the
#: budget: every cap binds and the rest stays unspent.
PINNED = [
    ((6,), 16.666666666666668, (6,), 16.666666666666668),
    ((6, 9), 34.30285870735532, (6, 12), 55.617943024159864),
    ((5, 8, 9), 247.04016994374945, (4, 7, 11), 87.71428571428571),
    ((4, 7, 12, 15), 115.63571428571429, (4, 7, 12, 15), 115.63571428571429),
    ((3, 6, 9, 13, 7), 161.79626512346883, (3, 5, 7, 10, 13), 216.78571428571428),
    ((5, 8, 9, 10, 13, 13), 237.36896682104057,
     (3, 5, 8, 12, 13, 17), 44.79875742883384),
    ((48,), 4.166666666666667, (48,), 4.166666666666667),
    ((14, 19), 26.9949083373517, (19, 35), 36.14285714285714),
    ((12, 41, 11), 175.76058118088912, (10, 18, 36), 47.13333333333334),
    ((11, 8, 15, 46), 159.16493416739416, (9, 19, 15, 37), 159.16493416739416),
    ((10, 7, 33, 10, 20), 11.590909090909092, (6, 7, 18, 36, 13), 66.39762175205439),
    ((6, 16, 19, 14, 25, 20), 308.7311231768954, (6, 9, 14, 16, 24, 31), 86.0),
    ((90,), 3.3333333333333335, (90,), 3.3333333333333335),
    ((18, 16), 24.576012651738626, (49, 16), 83.5),
    ((13, 81, 12), 205.84330076440006, (13, 34, 59), 62.89762175205439),
    ((13, 18, 16, 75), 36.75, (11, 30, 16, 65), 36.75),
    ((16, 19, 54, 17, 16), 13.61111111111111, (8, 18, 23, 28, 45), 49.22222222222222),
    ((5, 46, 5, 7, 72, 7), 732.4485504587776,
     (6, 11, 19, 29, 28, 49), 59.88469387755103),
    ((132,), 3.0303030303030303, (132,), 3.0303030303030303),
    ((9, 9), 58.39382414577354, (23, 45), 46.22222222222222),
    ((7, 128, 13), 50.768745691688956, (14, 106, 28), 21.122389385266565),
    ((21, 15, 11, 117), 89.76603399540934, (19, 31, 11, 103), 89.76603399540934),
    ((9, 14, 122, 7, 12), 9.87704918032787, (13, 11, 39, 80, 21), 124.04561622560774),
    ((9, 57, 8, 12, 91, 7), 772.8380430574502,
     (9, 18, 29, 21, 46, 61), 128.3075209875125),
]


@pytest.mark.parametrize("i", range(len(PINNED)))
def test_unified_greedy_reproduces_both_parents(i):
    request = _pinned_spec(i)
    allocation, objective, core_allocation, core_makespan = PINNED[i]
    outcome = greedy_outcome(request)
    assert tuple(outcome.allocation.values()) == allocation
    assert outcome.objective == pytest.approx(objective, rel=1e-12)
    assert validate_outcome(request, outcome) is None
    models = {name: spec.model for name, spec in request.components.items()}
    alloc, makespan = greedy_minmax_allocation(models, request.total_nodes)
    assert tuple(alloc.values()) == core_allocation
    assert makespan == pytest.approx(core_makespan, rel=1e-12)


def test_binding_caps_leave_budget_unspent_and_still_validate():
    request = _pinned_spec(1)
    assert request.objective == "max-min"
    outcome = greedy_outcome(request)
    caps = {name: spec.max_nodes for name, spec in request.components.items()}
    assert outcome.allocation == caps
    assert sum(caps.values()) < request.total_nodes
    assert validate_outcome(request, outcome) is None


def test_floors_beyond_the_budget_are_infeasible_not_overspent():
    spec = ComponentSpec(model=PerformanceModel(a=100.0), min_nodes=6)
    request = SolveRequest(components={"a": spec, "b": spec}, total_nodes=8)
    outcome = greedy_outcome(request)
    assert outcome.status == "infeasible" and outcome.allocation == {}
    assert validate_outcome(request, outcome) is None
    assert solve_request(request).status == "infeasible"


# -- keyed-RNG requests against the exact solve -------------------------------


def _random_request(objective: str, case: int, *, bounded: bool) -> SolveRequest:
    """1-6 components; with ``bounded``, floors and caps on about half of
    them, the budget kept within what the caps can absorb so the exact
    (``==`` budget) max-min model stays feasible."""
    rng = keyed_rng(1808, objective, bounded, case)
    comps = {}
    for j in range(int(rng.integers(1, 7))):
        model = PerformanceModel(
            a=float(rng.uniform(20, 2000)),
            b=float(rng.uniform(0.01, 0.5)) if rng.random() < 0.6 else 0.0,
            c=float(rng.uniform(1.0, 1.6)),
            d=float(rng.uniform(0.0, 5.0)),
        )
        lo = int(rng.integers(1, 4)) if bounded and rng.random() < 0.5 else 1
        hi = lo + int(rng.integers(0, 12)) if bounded and rng.random() < 0.5 else None
        comps[f"c{j}"] = ComponentSpec(model=model, min_nodes=lo, max_nodes=hi)
    floor = sum(s.min_nodes for s in comps.values())
    room = sum(40 if s.max_nodes is None else s.max_nodes for s in comps.values())
    total = floor + int(rng.integers(0, min(30, room - floor) + 1))
    return SolveRequest(components=comps, total_nodes=total, objective=objective)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_greedy_is_valid_and_never_better_than_exact(objective):
    """OA is exact on convex rows; max-min (nonconvex rows, no OA) is the
    level-set search on both sides, so there the property is equality."""
    for case in range(20):
        request = _random_request(objective, case, bounded=True)
        greedy = greedy_outcome(request)
        assert validate_outcome(request, greedy) is None, case
        served = solve_request(request)
        assert served.status == "optimal", case
        assert validate_outcome(request, served) is None, case
        if objective == "max-min":  # the one objective that is maximized
            assert greedy.objective <= served.objective * (1 + 1e-9), case
        else:
            exact = _oa(request).objective
            assert served.objective == pytest.approx(exact, rel=1e-9), case
            assert greedy.objective >= exact * (1 - 1e-9), case


def test_greedy_never_beats_the_exact_max_min_answer():
    """Found by the property above when max-min was a tree search: its cold
    "optimal" answer raised the floor to 22.7 s; the optimum is 66.9 s."""
    request = _random_request("max-min", 18, bounded=True)
    exact = solve_request(request)
    assert greedy_outcome(request).objective <= exact.objective * (1 + 1e-9)
    assert exact.objective == pytest.approx(66.864, abs=1e-3)


def _assert_greedy_is_exact(request: SolveRequest, case) -> None:
    assert greedy_outcome(request).objective == pytest.approx(
        _oa(request).objective, rel=1e-9
    ), case


def test_greedy_is_exact_for_unbounded_min_max():
    """§III-E's polynomial special case: one budget row, no node bounds."""
    for case in range(60):
        _assert_greedy_is_exact(_random_request("min-max", case, bounded=False), case)


def test_greedy_is_exact_for_bounded_min_max():
    """The exchange argument survives floors and caps."""
    for case in range(60):
        _assert_greedy_is_exact(_random_request("min-max", case, bounded=True), case)
    for i in range(0, len(PINNED), 3):
        _assert_greedy_is_exact(_pinned_spec(i), i)


def test_served_min_max_answer_is_the_oa_answer():
    """What ``solve_request`` returns for min-max (the heap, since it is
    exact) against OA on the same request's MINLP: fresh keyed cases, with
    and without floors and caps, 2-6 components."""
    checked = 0
    for bounded in (True, False):
        for case in range(100, 180):
            request = _random_request("min-max", case, bounded=bounded)
            if len(request.components) < 2:
                continue
            served = solve_request(request)
            assert served.status == "optimal", (case, bounded)
            assert validate_outcome(request, served) is None, (case, bounded)
            assert served.objective == pytest.approx(
                _oa(request).objective, rel=1e-9
            ), (case, bounded)
            checked += 1
    assert checked >= 100


def _sweet_spot_request(case: int) -> SolveRequest:
    """2-5 components whose curve minima (``n* = sqrt(a / b)``) sum to less
    than the budget, so the optimum parks every component *at* its minimum —
    where truncating ``n*`` instead of comparing its two neighbours is wrong."""
    rng = keyed_rng(1810, "sweet-spot", case)
    total = int(rng.integers(40, 160))
    k = int(rng.integers(2, 6))
    comps = {}
    for j in range(k):
        n_star = float(rng.uniform(2.0, 0.9 * total / k))
        b = float(rng.uniform(0.05, 2.0))
        model = PerformanceModel(a=b * n_star**2, b=b, c=1.0, d=float(rng.uniform(0, 5)))
        comps[f"c{j}"] = ComponentSpec(model=model)
    return SolveRequest(components=comps, total_nodes=total)


def test_greedy_is_exact_when_the_optimum_sits_at_a_curve_minimum():
    rounded_up = 0
    for case in range(40):
        request = _sweet_spot_request(case)
        _assert_greedy_is_exact(request, case)
        for name, count in greedy_outcome(request).allocation.items():
            model = request.components[name].model
            assert model.time(count) <= min(model.time(count - 1), model.time(count + 1))
            rounded_up += count > model.optimal_nodes()
    assert rounded_up >= 20  # the keyed cases do end where truncation moved the cap


def test_greedy_is_exact_on_both_pinned_serving_pools():
    """The default trace's 12 requests and the ledger's 48 (whose oracle —
    the denominator of ``makespan_ratio`` — is this rung)."""
    pools = {"trace": request_pool(TraceSpec()), "ledger": ledger_pool()}
    assert {k: len(v) for k, v in pools.items()} == {"trace": 12, "ledger": 48}
    for tag, pool in pools.items():
        for rank, request in enumerate(pool):
            _assert_greedy_is_exact(request, (tag, rank))


# -- max-min: the level-set answer against the tree it replaced ---------------


def _max_min_requests() -> list[tuple[str, SolveRequest]]:
    pinned = [(f"pinned-{i}", _pinned_spec(i)) for i in range(1, len(PINNED), 3)]
    keyed = [
        (f"keyed-{case}-{bounded}", _random_request("max-min", case, bounded=bounded))
        for bounded in (True, False)
        for case in range(20)
    ]
    return pinned + keyed


def test_max_min_is_never_below_nlpbb():
    """NLP-B&B on the nonconvex ``==``-budget model finds local optima; the
    level sets are never below it and strictly above where it was trapped
    (keyed-1/7/18-True and keyed-6/7-False with one BLAS thread)."""
    above = []
    for tag, request in _max_min_requests():
        outcome = solve_request(request)
        assert outcome.status == "optimal", tag
        assert outcome.iterations == 0, tag
        assert validate_outcome(request, outcome) is None, tag
        tree = solve_minlp_nlpbb(build_problem(request))
        if not tree.status.is_ok:  # caps below the budget: `==` is infeasible
            assert sum(outcome.allocation.values()) < request.total_nodes, tag
            continue
        assert outcome.objective >= tree.objective * (1 - 1e-9), tag
        if outcome.objective > tree.objective * (1 + 1e-6):
            above.append(tag)
    assert "keyed-7-False" in above
    trapped = solve_request(_random_request("max-min", 7, bounded=False))
    assert trapped.objective == pytest.approx(47.547, abs=1e-3)  # the cold tree: 13.67


# -- every route against enumeration -----------------------------------------


def _small_request(objective: str, case: int) -> SolveRequest:
    rng = keyed_rng(1809, objective, case)
    comps = {}
    for name in ("a", "b", "c"):
        model = PerformanceModel(
            a=float(rng.uniform(20, 400)),
            b=float(rng.uniform(0.0, 0.5)),
            c=float(rng.uniform(1.0, 1.5)),
            d=float(rng.uniform(0.2, 4.0)),
        )
        hi = int(rng.integers(2, 7)) if name == "a" else None
        comps[name] = ComponentSpec(model=model, max_nodes=hi)
    total = int(rng.integers(6, 10))
    return SolveRequest(components=comps, total_nodes=total, objective=objective)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_solve_request_matches_brute_force(objective):
    """The heap for min-max, level sets for max-min, marginal gain for
    min-sum: every route returns the optimum brute force enumerates on
    ``build_problem`` (for max-min the ``==``-budget reference formulation)."""
    assert Objective(objective).oa_safe == (objective != "max-min")
    for case in range(8):
        request = _small_request(objective, case)
        brute = solve_brute_force(build_problem(request)).require_ok()
        outcome = solve_request(request)
        assert outcome.status == "optimal", case
        assert outcome.iterations == 0, case
        assert outcome.objective == pytest.approx(brute.objective, rel=1e-6), case
        assert validate_outcome(request, outcome) is None, case


# -- the rule: no option without a caller -------------------------------------


def test_solve_entry_points_take_no_rng_spend_all_or_options():
    """No solve draws a random number and max-min is one function, so the
    parameters that existed to thread a generator through the entry points,
    to patch the heap for max-min and to cap its tree search stay deleted."""
    allocators = (greedy_minmax_allocation, maxmin_allocation, minsum_allocation)
    for entry in (solve_minlp_oa, solve_request, hslb_schedule, *allocators):
        params = set(inspect.signature(entry).parameters)
        assert not params & {"rng", "spend_all", "nlp_multistart"}, entry.__name__
    # ``options`` survives only where it is a tree search's own budget.
    for entry in (solve_request, hslb_schedule, *allocators):
        assert "options" not in inspect.signature(entry).parameters, entry.__name__
    for allocate in (maxmin_allocation, minsum_allocation):
        assert inspect.signature(allocate) == inspect.signature(
            greedy_minmax_allocation
        )
