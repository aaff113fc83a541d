"""The specialized allocators must agree with the MINLP route and with
oracles that share no code with them (enumeration, a quadratic DP, the
one-node-at-a-time heaps the top-B selections replaced)."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import AllocationModelBuilder
from repro.core.greedy import (
    _node_bounds,
    _sweet_spot,
    direct_allocation,
    greedy_minmax_allocation,
    maxmin_allocation,
    minsum_allocation,
)
from repro.core.objectives import Objective
from repro.minlp.oa import solve_minlp_oa
from repro.perf.model import PerformanceModel
from repro.service import ComponentSpec, SolveRequest
from repro.service.solver import build_problem, solve_request
from repro.util.rng import keyed_rng
from tests.minlp.brute_reference import solve_brute_force


def test_basic_allocation():
    models = {
        "big": PerformanceModel(a=1000.0, d=1.0),
        "small": PerformanceModel(a=100.0, d=1.0),
    }
    alloc, makespan = greedy_minmax_allocation(models, 22)
    assert alloc["big"] + alloc["small"] <= 22
    assert alloc["big"] > alloc["small"]
    # 10:1 work ratio -> roughly 10:1 nodes (20, 2).
    assert alloc["big"] == pytest.approx(20, abs=1)
    assert makespan == pytest.approx(
        max(models[k].time(v) for k, v in alloc.items())
    )


def test_validation():
    with pytest.raises(ValueError, match="no components"):
        greedy_minmax_allocation({}, 4)
    with pytest.raises(ValueError, match="cannot give"):
        greedy_minmax_allocation({"a": PerformanceModel(a=1.0)}, 0)


def test_caps_at_curve_minimum():
    # Curve minimum at n* = sqrt(100/0.1) ~ 31.6; granting more would slow it.
    models = {"u": PerformanceModel(a=100.0, b=0.1, c=1.0, d=0.0)}
    alloc, _ = greedy_minmax_allocation(models, 1000)
    assert alloc["u"] <= 32


def test_matches_minlp_small():
    models = {
        "a": PerformanceModel(a=100.0, d=2.0),
        "b": PerformanceModel(a=60.0, d=1.0),
        "c": PerformanceModel(a=250.0, d=3.0),
    }
    alloc, makespan = greedy_minmax_allocation(models, 30)
    builder = AllocationModelBuilder("x", 30)
    for name, m in models.items():
        builder.add_component(name, m)
    builder.limit_total_nodes()
    builder.set_objective(Objective.MIN_MAX)
    sol = solve_minlp_oa(builder.build()).require_ok()
    assert makespan == pytest.approx(sol.objective, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.lists(
        st.tuples(st.floats(10.0, 2000.0), st.floats(0.0, 5.0)),
        min_size=2,
        max_size=4,
    ),
    budget=st.integers(8, 64),
)
def test_greedy_optimal_property(seeds, budget):
    """Property: greedy equals the MINLP optimum on random decreasing curves."""
    models = {
        f"c{i}": PerformanceModel(a=a, d=d) for i, (a, d) in enumerate(seeds)
    }
    if budget < len(models):
        budget = len(models)
    alloc, makespan = greedy_minmax_allocation(models, budget)
    builder = AllocationModelBuilder("x", budget)
    for name, m in models.items():
        builder.add_component(name, m)
    builder.limit_total_nodes()
    builder.set_objective(Objective.MIN_MAX)
    sol = solve_minlp_oa(builder.build()).require_ok()
    assert makespan == pytest.approx(sol.objective, rel=1e-5, abs=1e-7)


def test_caps_at_the_integer_sweet_spot_not_its_floor():
    """The continuous optimum is 42.87 and T(43) < T(42): truncating it, as
    the heap once did, stops one node short of the exact answer."""
    model = PerformanceModel(a=1471.58, b=0.5, c=1.1, d=2.0)
    assert 42 < model.optimal_nodes() < 43 and model.time(43) < model.time(42)
    alloc, makespan = greedy_minmax_allocation({"u": model}, 64)
    assert alloc == {"u": 43} and makespan == model.time(43)


# -- min-max: the top-B selection against the heap it replaced --------------


def _heap_minmax_allocation(models, total_nodes, *, min_nodes=None, max_nodes=None):
    """The reference: grant one node at a time to the slowest component
    (max-heap on ``(T, name)``), never past its sweet spot or cap."""
    floors, hard_cap = _node_bounds(models, total_nodes, min_nodes, max_nodes)
    soft_cap = {
        name: min(hard_cap[name], _sweet_spot(model, total_nodes))
        for name, model in models.items()
    }
    alloc = dict(floors)
    budget = total_nodes - sum(alloc.values())
    tables = {}
    for name, model in models.items():
        last = max(floors[name], min(soft_cap[name], floors[name] + budget))
        tables[name] = model.time(np.arange(floors[name], last + 1)).tolist()
    heap = [(-table[0], name) for name, table in tables.items()]
    heapq.heapify(heap)
    while budget > 0 and heap:
        _, name = heapq.heappop(heap)
        if alloc[name] >= soft_cap[name]:
            continue
        alloc[name] += 1
        budget -= 1
        heapq.heappush(heap, (-tables[name][alloc[name] - floors[name]], name))
    return alloc, max(float(models[n].time(k)) for n, k in alloc.items())


def _minmax_spec(case: int):
    """Keyed spec: up to five curves — ``b = 0``, ``c < 1``, ``a = 0`` and
    exact copies of the previous curve under another name (ties) among
    them — with floors and caps on some, names in no particular order."""
    rng = keyed_rng(2601, "minmax", case)
    room = int(rng.choice([4, 24, 96, 400]))
    models, floors, caps, previous = {}, {}, {}, None
    for j in range(int(rng.integers(1, 6))):
        shape = int(rng.integers(0, 4))
        if shape == 3 and previous is not None:
            model = previous
        else:
            model = PerformanceModel(
                a=0.0 if rng.random() < 0.05 else float(rng.uniform(1, 60 * room)),
                b=0.0 if shape == 0 else float(rng.uniform(0.01, 4.0)),
                c=float(rng.uniform(0.3, 0.95) if shape == 1 else rng.uniform(1.0, 1.6)),
                d=float(rng.uniform(0.0, 5.0)),
            )
        name = f"{'zyxwv'[int(rng.integers(0, 5))]}{j}"
        models[name], previous = model, model
        floors[name] = int(rng.integers(1, 6)) if rng.random() < 0.4 else 1
        if rng.random() < 0.4:
            caps[name] = floors[name] + int(rng.integers(0, room))
    base = sum(floors.values())
    return models, int(rng.integers(base, base + room + 1)), floors, caps


def test_minmax_selection_is_the_heap_on_keyed_specs():
    for case in range(600):
        models, total, floors, caps = _minmax_spec(case)
        bounds = dict(min_nodes=floors, max_nodes=caps)
        got = greedy_minmax_allocation(models, total, **bounds)
        assert got == _heap_minmax_allocation(models, total, **bounds), case
        assert list(got[0]) == list(models)


def test_minmax_ties_go_to_the_first_name_as_the_heap_pops_them():
    model = PerformanceModel(a=120.0, d=1.0)  # b = 0: no sweet spot to stop at
    for names in (("b", "a"), ("a", "b"), ("c", "a", "b")):
        models = {name: model for name in names}
        # One node past an even split: only the first name may take it.
        total = 7 * len(names) + 1
        alloc, _ = greedy_minmax_allocation(models, total)
        assert alloc == _heap_minmax_allocation(models, total)[0]
        assert alloc["a"] == 8 and all(alloc[n] == 7 for n in names if n != "a")


# -- max-min by level sets, against enumeration and a DP ---------------------

_Spec = tuple[dict[str, PerformanceModel], int, dict[str, int], dict[str, int | None]]


def _maxmin_spec(case: int, *, components: int, budget: int) -> _Spec:
    """Keyed spec: up to ``components`` curves (a third with ``b = 0``, a
    third with ``c < 1``), floors and caps on about half of them, the budget
    drawn up to ``budget`` — so some specs cannot spend it all."""
    rng = keyed_rng(2101, "maxmin", components, budget, case)
    models, floors, caps = {}, {}, {}
    for j in range(int(rng.integers(1, components + 1))):
        shape = int(rng.integers(0, 3))
        models[f"c{j}"] = PerformanceModel(
            a=float(rng.uniform(5, 60 * budget)),
            b=0.0 if shape == 0 else float(rng.uniform(0.05, 4.0)),
            c=float(rng.uniform(0.3, 0.95) if shape == 1 else rng.uniform(1.0, 1.6)),
            d=float(rng.uniform(0.0, 5.0)),
        )
        floors[f"c{j}"] = int(rng.integers(1, 4)) if rng.random() < 0.5 else 1
        caps[f"c{j}"] = (
            floors[f"c{j}"] + int(rng.integers(0, budget // 2))
            if rng.random() < 0.5
            else None
        )
    total = int(rng.integers(sum(floors.values()), budget + 1))
    return models, total, floors, caps


_U = PerformanceModel(a=100.0, b=1.0, c=1.0, d=0.0)  # minimum T(10) = 20
_FLAT = PerformanceModel(a=0.0, d=3.0)  # pins the floor at 3 s wherever it sits
_EDGE_SPECS: dict[str, _Spec] = {
    "one component": ({"a": _U}, 24, {}, {}),
    "floors equal caps": ({"a": _U, "b": _U}, 12, {"a": 3, "b": 5}, {"a": 3, "b": 5}),
    "every cap binds": ({"a": _U, "b": _U}, 30, {}, {"a": 4, "b": 6}),
    # The floor is the flat curve's; the tie-break then parks the other
    # component on its curve minimum and the flat one absorbs the rest ...
    "optimum at a curve minimum": ({"flat": _FLAT, "u": _U}, 25, {}, {}),
    # ... unless the budget ends before the minimum does.
    "budget short of the minimum": ({"flat": _FLAT, "u": _U}, 9, {}, {}),
    # T(6) > T(14) > T(7): the counts that keep the floor are a run on each
    # side of the minimum, and only 6 + 14 spends the 20 nodes from them.
    "both sides of the minimum": ({"a": _U, "b": _U}, 20, {"a": 6}, {"a": 14}),
}


def _ranges(spec: _Spec) -> tuple[dict[str, range], int]:
    models, total, floors, caps = spec
    ranges = {}
    for name in models:
        cap = caps.get(name)
        hi = total if cap is None else min(cap, total)
        ranges[name] = range(min(floors.get(name, 1), hi), hi + 1)
    return ranges, min(total, sum(r[-1] for r in ranges.values()))


def _check_maxmin(spec: _Spec, floor: float, ceiling: float) -> None:
    """The answer spends what can be spent, inside the bounds, at the
    oracle's floor — and no allocation with that floor has a lower max."""
    models, total, floors, caps = spec
    ranges, spend = _ranges(spec)
    alloc, value = maxmin_allocation(models, total, min_nodes=floors, max_nodes=caps)
    assert list(alloc) == list(models)
    assert sum(alloc.values()) == spend
    assert all(alloc[name] in ranges[name] for name in models)
    times = [models[name].time(count) for name, count in alloc.items()]
    assert value == min(times)
    assert value == pytest.approx(floor, rel=1e-12)
    assert max(times) == pytest.approx(ceiling, rel=1e-12)


def _brute_force(spec: _Spec) -> tuple[float, float]:
    models = spec[0]
    ranges, spend = _ranges(spec)
    best = None
    for counts in itertools.product(*ranges.values()):
        if sum(counts) == spend:
            times = [m.time(n) for m, n in zip(models.values(), counts)]
            if best is None or (-min(times), max(times)) < best:
                best = (-min(times), max(times))
    return -best[0], best[1]


def _dp(spec: _Spec) -> tuple[float, float]:
    """``O(k N^2)``: ``best[s] = max_n min(best[s - n], T_j(n))`` for the
    floor, then the mirrored recurrence over the counts that keep it."""
    models = spec[0]
    ranges, spend = _ranges(spec)

    def fold(pick, combine, start, allowed):
        best = {0: start}
        for name, model in models.items():
            step = {}
            for s, value in best.items():
                for n in ranges[name]:
                    t = model.time(n)
                    if s + n <= spend and allowed(t):
                        new = combine(value, t)
                        step[s + n] = new if s + n not in step else pick(step[s + n], new)
            best = step
        return best[spend]

    floor = fold(max, min, float("inf"), lambda t: True)
    return floor, fold(min, max, 0.0, lambda t: t >= floor)


@pytest.mark.parametrize("name", _EDGE_SPECS)
def test_maxmin_edge_specs_match_brute_force_and_dp(name):
    spec = _EDGE_SPECS[name]
    assert _brute_force(spec) == _dp(spec)
    _check_maxmin(spec, *_dp(spec))


def test_maxmin_edge_specs_are_the_cases_they_name():
    alloc, floor = maxmin_allocation(*_EDGE_SPECS["optimum at a curve minimum"][:2])
    assert alloc == {"flat": 15, "u": 10} and floor == 3.0
    alloc, _ = maxmin_allocation(*_EDGE_SPECS["budget short of the minimum"][:2])
    assert alloc == {"flat": 1, "u": 8}
    models, total, floors, caps = _EDGE_SPECS["every cap binds"]
    alloc, _ = maxmin_allocation(models, total, max_nodes=caps)
    assert alloc == caps and sum(caps.values()) < total
    models, total, floors, caps = _EDGE_SPECS["both sides of the minimum"]
    alloc, floor = maxmin_allocation(models, total, min_nodes=floors, max_nodes=caps)
    assert sorted(alloc.values()) == [6, 14] and floor == _U.time(14)


def test_maxmin_matches_brute_force_on_small_keyed_specs():
    for case in range(60):
        spec = _maxmin_spec(case, components=4, budget=12)
        _check_maxmin(spec, *_brute_force(spec))


def test_maxmin_matches_the_dp_on_keyed_specs():
    for case in range(40):
        spec = _maxmin_spec(case, components=6, budget=96)
        _check_maxmin(spec, *_dp(spec))


def test_maxmin_validation_is_the_heaps():
    with pytest.raises(ValueError, match="no components"):
        maxmin_allocation({}, 4)
    with pytest.raises(ValueError, match="cannot give"):
        maxmin_allocation({"a": _U, "b": _U}, 8, min_nodes={"a": 6, "b": 6})


# -- min-sum by marginal gain, against the heap, enumeration and OA ----------


def _heap_minsum_allocation(models, total_nodes, *, min_nodes=None, max_nodes=None):
    """The reference: grant one node at a time to the largest positive gain
    ``T(n) - T(n + 1)`` (max-heap on ``(gain, name)``), never past a
    component's sweet spot or cap."""
    floors, hard_cap = _node_bounds(models, total_nodes, min_nodes, max_nodes)
    soft_cap = {
        name: min(hard_cap[name], _sweet_spot(model, total_nodes))
        for name, model in models.items()
    }
    alloc = dict(floors)
    budget = total_nodes - sum(alloc.values())

    def gain(name):
        n = alloc[name]
        return float(models[name].time(n)) - float(models[name].time(n + 1))

    heap = [(-gain(name), name) for name in models if alloc[name] < soft_cap[name]]
    heapq.heapify(heap)
    while budget > 0 and heap:
        negative_gain, name = heapq.heappop(heap)
        if negative_gain >= 0:
            break
        alloc[name] += 1
        budget -= 1
        if alloc[name] < soft_cap[name]:
            heapq.heappush(heap, (-gain(name), name))
    return alloc


def _minsum_spec(case: int, *, room: int, components: int):
    """Keyed spec: up to ``components`` curves with ``c`` anywhere in
    ``[0, 2]`` — ``a = 0`` or ``b = 0`` on some, exact copies of the previous
    curve under another name (ties) — a quarter of them floored past their
    sweet spot, others floored low or capped, names in no particular order."""
    rng = keyed_rng(2801, "minsum", room, case)
    models, floors, caps, previous = {}, {}, {}, None
    for j in range(int(rng.integers(1, components + 1))):
        shape = int(rng.integers(0, 5))
        if shape == 4 and previous is not None:
            model = previous
        else:
            model = PerformanceModel(
                a=0.0 if shape == 0 else float(rng.uniform(1, 40 * room)),
                b=0.0 if shape == 1 else float(rng.uniform(0.01, 4.0)),
                c=float(rng.uniform(0.0, 2.0)),
                d=float(rng.uniform(0.0, 5.0)),
            )
        name = f"{'zyxw'[int(rng.integers(0, 4))]}{j}"
        models[name], previous = model, model
        u = rng.random()
        if u < 0.25:
            floors[name] = _sweet_spot(model, room) + int(rng.integers(1, 4))
        else:
            floors[name] = int(rng.integers(1, 4)) if u < 0.5 else 1
        if rng.random() < 0.3:
            caps[name] = floors[name] + int(rng.integers(0, room // 2 + 1))
    base = sum(floors.values())
    return models, int(rng.integers(base, base + room + 1)), floors, caps


def _summed(models, alloc) -> float:
    return sum(float(models[name].time(count)) for name, count in alloc.items())


def _minsum_brute_force(models, total, floors, caps) -> float:
    """The least summed time over every count vector inside the bounds that
    spends at most ``total``, by enumeration."""
    lo, hi = _node_bounds(models, total, floors, caps)
    counts = [np.arange(lo[name], hi[name] + 1) for name in models]
    tables = [models[name].time(n) for name, n in zip(models, counts)]
    spent = sum(np.meshgrid(*counts, indexing="ij", sparse=True))
    cost = sum(np.meshgrid(*tables, indexing="ij", sparse=True))
    return float(np.min(np.where(spent <= total, cost, np.inf)))


def _check_minsum(models, total, floors, caps):
    alloc, value = minsum_allocation(models, total, min_nodes=floors, max_nodes=caps)
    lo, hi = _node_bounds(models, total, floors, caps)
    assert list(alloc) == list(models)
    assert sum(alloc.values()) <= total
    assert all(lo[name] <= alloc[name] <= hi[name] for name in models)
    assert value == _summed(models, alloc)
    return alloc, value


def test_minsum_selection_is_the_heap_on_keyed_specs():
    for case in range(400):
        models, total, floors, caps = _minsum_spec(case, room=96, components=5)
        bounds = dict(min_nodes=floors, max_nodes=caps)
        alloc, _ = _check_minsum(models, total, floors, caps)
        assert alloc == _heap_minsum_allocation(models, total, **bounds), case


def _minsum_dp(models, total, floors, caps) -> float:
    """``O(K N^2)``: ``best[s]`` = least summed time of the components so far
    spending exactly ``s`` nodes."""
    lo, hi = _node_bounds(models, total, floors, caps)
    best = np.full(total + 1, np.inf)
    best[0] = 0.0
    for name, model in models.items():
        step = np.full(total + 1, np.inf)
        for k in range(lo[name], hi[name] + 1):
            step[k:] = np.minimum(step[k:], best[: total + 1 - k] + model.time(k))
        best = step
    return float(best.min())


def test_minsum_matches_brute_force_on_small_keyed_specs():
    """Up to three components: every count vector enumerated."""
    for case in range(300):
        models, total, floors, caps = _minsum_spec(case, room=40, components=3)
        _, value = _check_minsum(models, total, floors, caps)
        assert value == pytest.approx(
            _minsum_brute_force(models, total, floors, caps), rel=1e-9
        ), case


def test_minsum_matches_the_dp_on_keyed_specs():
    for case in range(40):
        models, total, floors, caps = _minsum_spec(case, room=400, components=5)
        _, value = _check_minsum(models, total, floors, caps)
        assert value == pytest.approx(
            _minsum_dp(models, total, floors, caps), rel=1e-9
        ), case


def _request(models, total, floors, caps, objective="min-sum") -> SolveRequest:
    return SolveRequest(
        components={
            name: ComponentSpec(model, floors[name], caps.get(name))
            for name, model in models.items()
        },
        total_nodes=total,
        objective=objective,
    )


def test_served_minsum_equals_oa_on_the_built_problem():
    """OA on ``build_problem`` certifies the served answer — the priced
    objectives agree to 1e-9 — on the keyed requests up to K = 5, N ~ 400
    whose curves are all convex.  OA's exactness needs convex rows: where
    some ``c < 1`` curve turns concave its tangent cuts are not valid, and
    keyed case 17 reads "optimal" at 275.6428 s or at the true 275.6297 s
    depending on the BLAS thread count.  Enumeration and the DP above cover
    those curves."""
    checked = 0
    for case in range(120):
        models, total, floors, caps = _minsum_spec(case, room=400, components=5)
        if not all(model.is_convex for model in models.values()):
            continue
        checked += 1
        request = _request(models, total, floors, caps)
        served = solve_request(request)
        assert served.status == "optimal" and served.iterations == 0
        sol = solve_minlp_oa(build_problem(request))
        assert sol.status.value == "optimal", (case, sol.message)
        oa = {name: int(round(sol.values[f"n_{name}"])) for name in models}
        assert served.objective == pytest.approx(_summed(models, oa), rel=1e-9), case
    assert checked >= 40


def test_minsum_ties_go_to_the_first_name_as_the_heap_pops_them():
    model = PerformanceModel(a=120.0, d=1.0)  # b = 0: every gain positive
    for names in (("b", "a"), ("a", "b"), ("c", "a", "b")):
        models = {name: model for name in names}
        total = 7 * len(names) + 1
        alloc, _ = minsum_allocation(models, total)
        assert alloc == _heap_minsum_allocation(models, total)
        assert alloc["a"] == 8 and all(alloc[n] == 7 for n in names if n != "a")


def test_minsum_stops_at_the_sweet_spot_and_leaves_budget_unspent():
    flat = PerformanceModel(a=0.0, d=3.0)  # no gain anywhere: stays at its floor
    u = PerformanceModel(a=100.0, b=1.0, c=1.0, d=0.0)  # minimum T(10) = 20
    alloc, value = minsum_allocation({"flat": flat, "u": u}, 64)
    assert alloc == {"flat": 1, "u": 10} and value == 23.0
    # A floor past the sweet spot is kept, not walked back.
    alloc, _ = minsum_allocation({"u": u}, 64, min_nodes={"u": 30})
    assert alloc == {"u": 30}


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 1e4),
    b=st.floats(0.0, 10.0),
    c=st.floats(0.0, 2.0),
    d=st.floats(0.0, 100.0),
)
def test_gains_only_fall_up_to_the_sweet_spot(a, b, c, d):
    """Discrete convexity where marginal gain walks: ``T(n) - T(n + 1)`` is
    non-increasing on ``[1, sweet spot]`` for every curve the family admits,
    ``c < 1`` included — what makes the greedy exact with no runtime check."""
    model = PerformanceModel(a=a, b=b, c=c, d=d)
    top = _sweet_spot(model, 4096)
    times = model.time(np.arange(1, top + 1))
    gains = -np.diff(times)
    slack = 16 * np.finfo(float).eps * max(float(times[0]), 1.0)
    assert np.all(np.diff(gains) <= slack)


def test_the_formerly_infeasible_request_is_answered_optimal():
    """Five components at 4096 nodes, one floored at 385 — past its sweet
    spot: OA once answered it "infeasible" (its epigraph bound is fixed in
    the builder); the service answers it, and OA now agrees."""
    from tests.core.test_builder import FAR_FLOOR

    models = {name: model for name, (model, _) in FAR_FLOOR.items()}
    floors = {name: floor for name, (_, floor) in FAR_FLOOR.items()}
    request = _request(models, 4096, floors, {})
    served = solve_request(request)
    assert served.status == "optimal" and served.allocation["c0"] == 385
    sol = solve_minlp_oa(build_problem(request))
    assert sol.status.value == "optimal", sol.message
    oa = {name: int(round(sol.values[f"n_{name}"])) for name in models}
    assert served.objective == pytest.approx(_summed(models, oa), rel=1e-9)


# -- min-max ties: an idle node helps no component ----------------------------


def _idle_spec(case: int):
    """Keyed convex spec small enough for brute force: one to three curves
    (``c >= 1``) whose sweet spots often lie inside the budget, floors of
    one or two nodes, a cap on some."""
    rng = keyed_rng(4107, "idle", case)
    models, floors, caps = {}, {}, {}
    for name in ("u", "v", "w")[: int(rng.integers(1, 4))]:
        models[name] = PerformanceModel(
            a=float(rng.uniform(2.0, 60.0)),
            b=float(rng.uniform(0.5, 4.0)) if rng.random() < 0.8 else 0.0,
            c=float(rng.uniform(1.0, 1.6)),
            d=float(rng.uniform(0.0, 3.0)),
        )
        floors[name] = int(rng.integers(1, 3))
        if rng.random() < 0.3:
            caps[name] = floors[name] + int(rng.integers(0, 4))
    base = sum(floors.values())
    return models, int(rng.integers(base, base + 10)), floors, caps


def test_a_minmax_answer_idles_a_node_only_where_no_component_gets_faster():
    """Min-max has ties; among the co-optima the direct algorithms return
    one that leaves a node idle only when every component sits at its cap
    or at its integer sweet spot, so no component would get faster with it.
    Brute force on the built problem certifies the objective.  (An OA answer
    need not hold this: it may return any co-optimum.)"""
    idle = 0
    for case in range(40):
        models, total, floors, caps = _idle_spec(case)
        request = _request(models, total, floors, caps, objective="min-max")
        brute = solve_brute_force(build_problem(request)).require_ok()
        bounds = dict(min_nodes=floors, max_nodes=caps)
        served = solve_request(request)
        for alloc, makespan in (
            greedy_minmax_allocation(models, total, **bounds),
            direct_allocation(Objective.MIN_MAX, models, total, **bounds),
            (served.allocation, served.objective),
        ):
            assert makespan == pytest.approx(brute.objective, rel=1e-9), case
            assert sum(alloc.values()) <= total, case
            if sum(alloc.values()) == total:
                continue
            idle += 1
            for name, n in alloc.items():
                cap = min(total, caps.get(name, total))
                faster = models[name].time(n + 1) < models[name].time(n)
                assert n >= cap or not faster, (case, name, alloc)
    assert idle >= 30  # the property is exercised, not vacuous
