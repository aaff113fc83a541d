"""Edge-path tests for the branch-and-bound engine."""

import time

import pytest

from repro.minlp.bnb import BnBOptions, BranchAndBound
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.problem import Domain
from repro.minlp.solution import Status


def _knapsack(n=14, cap=23):
    m = Model("k")
    zs = m.var_list("z", n, 0, 1, domain=Domain.BINARY)
    weights = [(3 * i) % 7 + 2 for i in range(n)]
    values = [(5 * i) % 11 + 1 for i in range(n)]
    m.add(sum(w * z for w, z in zip(weights, zs)) <= cap)
    m.maximize(sum(v * z for v, z in zip(values, zs)))
    return m.build()


def test_time_limit_returns_best_found():
    # A time limit of ~0 forces an immediate stop; with no incumbent the
    # engine must say so rather than fabricate a point.
    opts = BnBOptions(time_limit=0.0)
    sol = solve_milp(_knapsack(), opts)
    assert sol.status is Status.TIME_LIMIT
    assert not sol.values


def test_node_limit_with_incumbent_is_feasible_status():
    p = _knapsack(n=18, cap=31)
    sol = solve_milp(p, BnBOptions(node_limit=30))
    if sol.status is Status.NODE_LIMIT:
        assert not sol.values
    else:
        assert sol.status in (Status.FEASIBLE, Status.OPTIMAL)
        # A bound accompanies any returned point.
        assert sol.bound >= sol.objective - 1e-6  # maximize: bound above


def test_invalid_relax_solver_rejected():
    with pytest.raises(TypeError, match="relax_solver"):
        BranchAndBound(_knapsack(), "qp")


def test_gap_tolerances_loose_stops_early():
    p = _knapsack(n=16, cap=29)
    exact = solve_milp(p)
    loose = solve_milp(p, BnBOptions(gap_abs=5.0))
    # A loose gap may stop at a slightly worse incumbent but never a better one.
    assert loose.objective <= exact.objective + 1e-9
    assert loose.objective >= exact.objective - 5.0 - 1e-9


def test_oa_respects_time_limit_mid_tree():
    # Convex MINLP with a moderately large integer grid; a tiny time limit
    # must terminate promptly and report honestly.
    m = Model()
    t = m.var("T", 0, 1e6)
    ns = [m.integer_var(f"n{i}", 1, 2000) for i in range(6)]
    m.add(sum(ns) <= 4000)
    for i, n in enumerate(ns):
        m.add(t >= (1000.0 * (i + 1)) / n + 0.1 * i)
    m.minimize(t)
    start = time.perf_counter()
    sol = solve_minlp_oa(m.build(), BnBOptions(time_limit=0.5))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert sol.status in (Status.OPTIMAL, Status.FEASIBLE, Status.TIME_LIMIT)
    if sol.status.is_ok:
        # Any reported point must be genuinely feasible.
        for i, n in enumerate(ns):
            assert sol.values[f"n{i}"] >= 1


def test_maximize_with_sos_branching():
    m = Model()
    zs = m.var_list("z", 5, 0, 1, domain=Domain.BINARY)
    vals = [3.0, 9.0, 4.0, 7.0, 5.0]
    m.add_equals(sum(zs), 1)
    m.sos1(zs)
    m.maximize(sum(v * z for v, z in zip(vals, zs)))
    sol = solve_milp(m.build())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(9.0)
    assert sol.values["z[1]"] == pytest.approx(1.0)
