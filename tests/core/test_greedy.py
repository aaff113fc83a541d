"""The specialized allocators must agree with the MINLP route and with
oracles that share no code with them (enumeration, a quadratic DP)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import AllocationModelBuilder
from repro.core.greedy import greedy_minmax_allocation, maxmin_allocation
from repro.core.objectives import Objective
from repro.minlp import solve
from repro.perf.model import PerformanceModel
from repro.util.rng import keyed_rng


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
    sol = solve(builder.build()).require_ok()
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
    sol = solve(builder.build()).require_ok()
    assert makespan == pytest.approx(sol.objective, rel=1e-5, abs=1e-7)


def test_caps_at_the_integer_sweet_spot_not_its_floor():
    """The continuous optimum is 42.87 and T(43) < T(42): truncating it, as
    the heap once did, stops one node short of the exact answer."""
    model = PerformanceModel(a=1471.58, b=0.5, c=1.1, d=2.0)
    assert 42 < model.optimal_nodes() < 43 and model.time(43) < model.time(42)
    alloc, makespan = greedy_minmax_allocation({"u": model}, 64)
    assert alloc == {"u": 43} and makespan == model.time(43)


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
