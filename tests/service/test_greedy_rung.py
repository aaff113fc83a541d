"""The greedy rung, proven: feasible, never better than exact, same as before.

The service's ``greedy_outcome`` and the pipeline's ``fallback_allocation``
are one function (:func:`repro.core.greedy.greedy_minmax_allocation`).  It is
checked here against values — a table pinned from the two implementations it
replaced — and against the exact solvers on keyed-RNG requests, so neither the
dedupe nor a later edit is checked against itself.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import greedy_minmax_allocation
from repro.core.objectives import Objective
from repro.minlp import solve_brute_force
from repro.perf.model import PerformanceModel
from repro.service import ComponentSpec, SolveRequest
from repro.service.solver import (
    build_problem,
    greedy_outcome,
    solve_request,
    validate_outcome,
)
from repro.util.rng import keyed_rng

OBJECTIVES = tuple(o.value for o in Objective)

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


#: Per spec: the service greedy's (allocation, objective) under the request's
#: bounds and objective, then the core greedy's (allocation, makespan) on the
#: bare curves — as the two separate implementations computed them before
#: they were merged.  Specs 1, 7, 13 and 19 are max-min requests whose caps
#: sum to less than the budget: ``spend_all`` with every cap binding.
PINNED = [
    ((6,), 16.666666666666668, (6,), 16.666666666666668),
    ((6, 9), 34.30285870735532, (6, 12), 55.617943024159864),
    ((4, 8, 10), 250.5, (4, 7, 11), 87.71428571428571),
    ((4, 7, 12, 15), 115.63571428571429, (4, 7, 12, 15), 115.63571428571429),
    ((3, 6, 9, 13, 7), 161.79626512346883, (3, 5, 7, 10, 13), 216.78571428571428),
    ((3, 5, 8, 10, 14, 18), 253.57617140279282,
     (3, 5, 8, 12, 13, 17), 44.79875742883384),
    ((48,), 4.166666666666667, (48,), 4.166666666666667),
    ((14, 19), 26.9949083373517, (19, 34), 36.14705882352941),
    ((12, 41, 11), 175.76058118088912, (10, 18, 36), 47.13333333333334),
    ((11, 8, 14, 47), 159.80622623065986, (9, 20, 14, 37), 159.80622623065986),
    ((13, 7, 37, 10, 13), 10.535916021359286, (6, 7, 18, 36, 13), 66.39762175205439),
    ((7, 11, 18, 15, 29, 20), 314.0479654957993, (6, 9, 14, 16, 24, 31), 86.0),
    ((90,), 3.3333333333333335, (90,), 3.3333333333333335),
    ((18, 16), 24.576012651738626, (49, 16), 83.5),
    ((13, 81, 12), 205.84330076440006, (13, 34, 59), 62.89762175205439),
    ((13, 18, 15, 76), 36.75992253449073, (11, 31, 15, 65), 36.75992253449073),
    ((17, 17, 55, 17, 16), 13.114705882352942, (8, 17, 26, 27, 44), 49.22727272727273),
    ((5, 30, 5, 7, 88, 7), 735.6171934100294,
     (6, 11, 19, 29, 28, 49), 59.88469387755103),
    ((132,), 3.0303030303030303, (132,), 3.0303030303030303),
    ((9, 9), 58.39382414577354, (23, 44), 46.22727272727273),
    ((7, 128, 13), 50.768745691688956, (14, 107, 27), 21.125916881765065),
    ((21, 15, 10, 118), 90.11706625951746, (19, 30, 10, 105), 90.11706625951746),
    ((9, 10, 126, 7, 12), 9.642857142857142, (14, 10, 40, 80, 20), 124.2213595499958),
    ((9, 38, 8, 12, 110, 7), 776.0593831208955,
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
    """OA is exact on convex rows.  Max-min goes to NLP-B&B on a nonconvex
    model, whose optima are local: there the property holds because the
    tree starts from the greedy allocation (see the test below)."""
    for case in range(20):
        request = _random_request(objective, case, bounded=True)
        greedy = greedy_outcome(request)
        assert validate_outcome(request, greedy) is None, case
        exact = solve_request(request)
        assert exact.status == "optimal", case
        assert validate_outcome(request, exact) is None, case
        if objective == "max-min":  # the one objective that is maximized
            assert greedy.objective <= exact.objective * (1 + 1e-9), case
        else:
            assert greedy.objective >= exact.objective * (1 - 1e-9), case


def test_greedy_never_beats_the_exact_max_min_answer():
    """Found by the property above: started cold, NLP-B&B's "optimal" answer
    on this request raised the floor to 22.7 s where greedy reaches 66.9 s."""
    request = _random_request("max-min", 18, bounded=True)
    exact = solve_request(request)
    assert greedy_outcome(request).objective <= exact.objective * (1 + 1e-9)
    assert exact.objective == pytest.approx(66.864, abs=1e-3)
    assert not exact.warm_started  # that flag means "a cache donor was used"


def test_greedy_is_exact_for_unbounded_min_max():
    """§III-E's polynomial special case: one budget row, no node bounds."""
    for case in range(20):
        request = _random_request("min-max", case, bounded=False)
        exact = solve_request(request)
        assert exact.status == "optimal", case
        assert greedy_outcome(request).objective == pytest.approx(
            exact.objective, rel=1e-9
        ), case


# -- the routing fact ``Objective.oa_safe`` carries ---------------------------


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
    """OA where the epigraph rows are convex, NLP-B&B with the exact budget
    where they are not: either way the enumerated optimum."""
    assert Objective(objective).oa_safe == (objective != "max-min")
    for case in range(8):
        request = _small_request(objective, case)
        brute = solve_brute_force(build_problem(request)).require_ok()
        outcome = solve_request(request)
        assert outcome.status == "optimal", case
        assert outcome.objective == pytest.approx(brute.objective, rel=1e-6), case
        assert validate_outcome(request, outcome) is None, case
