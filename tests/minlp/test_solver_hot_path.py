"""Solver hot-path guarantees: three-way LP agreement and basis reuse.

Three independent LP implementations must agree on random instances —
HiGHS (:func:`solve_lp`), the vectorized simplex (:func:`solve_lp_simplex`),
and the retained loop-based reference
(:func:`solve_lp_simplex_reference`) — including degenerate, redundant-row,
and free-variable cases.  On top of that, warm-started solves (parent basis
handed to a child) must return **bit-identical** results to cold solves,
which is what lets branch-and-bound turn basis reuse on without changing a
single incumbent.
"""

import math

import numpy as np
import pytest

from repro.minlp import BnBOptions, Model
from repro.minlp.linprog import IncrementalLPSolver, LinearProgram, solve_lp
from repro.minlp.milp import solve_milp
from repro.minlp.simplex import basis_compatible, solve_lp_simplex
from repro.minlp.solution import Status
from repro.obs.metrics import REGISTRY
from tests.minlp.simplex_reference import solve_lp_simplex_reference


def _random_lp(rng, n, m, *, degenerate=False, redundant=False, free=False):
    A = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.0, 1.0, n)
    b = A @ x_feas
    c = rng.normal(size=n)
    row_lb = b - rng.uniform(0.1, 1.0, m)
    row_ub = b + rng.uniform(0.1, 1.0, m)
    var_lb = np.zeros(n)
    var_ub = np.ones(n)
    if degenerate:
        # Equality rows through a common point create degenerate vertices.
        k = max(1, m // 2)
        row_lb[:k] = row_ub[:k] = b[:k]
    if redundant:
        A = np.vstack([A, A[0] * 2.0])
        row_lb = np.append(row_lb, row_lb[0] * 2.0)
        row_ub = np.append(row_ub, row_ub[0] * 2.0)
    if free:
        var_lb = var_lb.copy()
        var_ub = var_ub.copy()
        var_lb[0] = -math.inf
        var_ub[0] = math.inf
        j = 1 % n
        var_lb[j] = -math.inf  # mirror variable: only an upper bound
    return LinearProgram(
        c=c, A=A, row_lb=row_lb, row_ub=row_ub, var_lb=var_lb, var_ub=var_ub
    )


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"degenerate": True},
        {"redundant": True},
        {"free": True},
        {"degenerate": True, "redundant": True, "free": True},
    ],
    ids=["plain", "degenerate", "redundant", "free", "all"],
)
def test_three_way_agreement(shape):
    """Vectorized simplex == HiGHS == loop reference within 1e-7."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 8))
        lp = _random_lp(rng, n, m, **shape)
        ours = solve_lp_simplex(lp)
        highs = solve_lp(lp)
        ref = solve_lp_simplex_reference(lp)
        assert ours.status is ref.status, (seed, ours.message, ref.message)
        if not (
            ours.status is Status.UNBOUNDED and highs.status is Status.INFEASIBLE
        ):
            # HiGHS presolve reports "infeasible OR unbounded" as infeasible;
            # when both simplex codes prove unboundedness that's the same ray.
            assert ours.status is highs.status, (seed, ours.message, highs.message)
        if highs.status is Status.OPTIMAL:
            assert ours.objective == pytest.approx(highs.objective, abs=1e-7)
            assert ours.objective == pytest.approx(ref.objective, abs=1e-7)
            assert np.all(lp.A @ ours.x <= lp.row_ub + 1e-7)
            assert np.all(lp.A @ ours.x >= lp.row_lb - 1e-7)


def test_warm_start_bit_identical_to_cold():
    """A reused parent basis never changes the answer — only the path to it."""
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 14))
        m = int(rng.integers(2, 10))
        parent = _random_lp(rng, n, m)
        root = solve_lp_simplex(parent)
        if root.status is not Status.OPTIMAL or root.basis is None:
            continue
        # Child: tighten one variable bound, as branching does.
        j = int(rng.integers(n))
        ub = parent.var_ub.copy()
        ub[j] = float(rng.uniform(0.2, 0.8))
        child = LinearProgram(
            c=parent.c, A=parent.A, row_lb=parent.row_lb, row_ub=parent.row_ub,
            var_lb=parent.var_lb, var_ub=ub,
        )
        warm = solve_lp_simplex(child, basis=root.basis)
        cold = solve_lp_simplex(child)
        hits += warm.warm_started
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert warm.objective == cold.objective  # exact, not approx
            assert np.array_equal(warm.x, cold.x)
    assert hits >= 30  # reuse must actually engage, not silently cold-start


def test_warm_start_extends_over_appended_cut_rows():
    rng = np.random.default_rng(7)
    parent = _random_lp(rng, 10, 6)
    root = solve_lp_simplex(parent)
    assert root.basis is not None
    cut = rng.normal(size=10)
    child = LinearProgram(
        c=parent.c,
        A=np.vstack([parent.A, cut]),
        row_lb=np.append(parent.row_lb, -math.inf),
        row_ub=np.append(parent.row_ub, float(cut @ (np.ones(10) * 0.3))),
        var_lb=parent.var_lb,
        var_ub=parent.var_ub,
    )
    warm = solve_lp_simplex(child, basis=root.basis)
    cold = solve_lp_simplex(child)
    assert warm.warm_started
    assert warm.status is cold.status
    if cold.status is Status.OPTIMAL:
        assert warm.objective == cold.objective
        assert np.array_equal(warm.x, cold.x)


def test_incompatible_basis_falls_back_to_cold():
    rng = np.random.default_rng(11)
    a = _random_lp(rng, 6, 4)
    b = _random_lp(rng, 8, 4)  # different variable structure
    ra = solve_lp_simplex(a)
    rb = solve_lp_simplex(b, basis=ra.basis)
    assert not rb.warm_started
    assert rb.status is solve_lp_simplex(b).status


def test_basis_compatible_prefix_rule():
    rng = np.random.default_rng(13)
    lp = _random_lp(rng, 5, 3)
    res = solve_lp_simplex(lp)
    sig = res.basis.signature
    assert basis_compatible(res.basis, sig)
    # Extra trailing rows (appended cuts) keep compatibility...
    extended = (sig[0], sig[1], sig[2], sig[3] + (1,))
    assert basis_compatible(res.basis, extended)
    # ...but any change to variable structure or upper-row count breaks it.
    assert not basis_compatible(res.basis, (sig[0], sig[1] + 1, sig[2], sig[3]))
    assert not basis_compatible(res.basis, (sig[0], sig[1], sig[2] + 1, sig[3]))


def _knapsack_problem(seed=0, items=10):
    rng = np.random.default_rng(seed)
    value = rng.uniform(1.0, 10.0, items)
    weight = rng.uniform(1.0, 5.0, items)
    m = Model(f"knapsack{seed}")
    xs = [m.binary_var(f"x{i}") for i in range(items)]
    m.add(sum(float(weight[i]) * xs[i] for i in range(items)) <= float(weight.sum()) / 2)
    m.maximize(sum(float(value[i]) * xs[i] for i in range(items)))
    return m.build()


@pytest.mark.parametrize("engine", ["simplex", "auto"])
def test_bnb_basis_reuse_bit_identical_incumbents(engine, force_lp_engine):
    """Same tree, same incumbents, same objective — reuse on vs. off."""
    force_lp_engine("routed" if engine == "auto" else engine)
    for seed in range(6):
        problem = _knapsack_problem(seed)
        on = solve_milp(problem, BnBOptions(basis_reuse=True))
        off = solve_milp(problem, BnBOptions(basis_reuse=False))
        assert on.status is off.status
        assert on.objective == off.objective  # bit-identical, not approx
        assert on.values == off.values
        assert on.stats.nodes_explored == off.stats.nodes_explored


def _reuse_counts():
    counter = REGISTRY.counter("solver_basis_reuse_total")
    return counter.value(outcome="hit"), counter.value(outcome="miss")


def test_bnb_reuse_counters_recorded():
    before_hit, _ = _reuse_counts()
    solve_milp(_knapsack_problem(3))  # default options: small LPs -> simplex
    after_hit, _ = _reuse_counts()
    assert after_hit > before_hit  # child nodes actually reused parent bases


def test_reuse_counters_ignore_highs_solves(force_lp_engine):
    """HiGHS can never use a basis, so offering it one is not a miss."""
    problem = _knapsack_problem(1, items=5)
    solver = IncrementalLPSolver(problem)
    solver.solve({})
    basis = solver.last_basis
    assert basis is not None
    force_lp_engine("highs")
    before = _reuse_counts()
    assert solver.solve({"x0": (0.0, 0.0)}, basis=basis).status is Status.OPTIMAL
    assert _reuse_counts() == before
    assert solver.last_basis is None
    assert solver.report["lp_highs"] == 1 and solver.report["lp_simplex"] == 1


def test_simplex_backend_agrees_with_highs_milp(force_lp_engine):
    for seed in range(4):
        problem = _knapsack_problem(seed, items=8)
        force_lp_engine("simplex")
        fast = solve_milp(problem)
        force_lp_engine("highs")
        ref = solve_milp(problem)
        assert fast.status is ref.status
        assert fast.objective == pytest.approx(ref.objective, abs=1e-7)


def test_incremental_solver_add_row_invalidates_cache():
    from repro.minlp.expr import VarRef

    problem = _knapsack_problem(1, items=5)
    solver = IncrementalLPSolver(problem)
    first = solver.solve({})
    assert first.status is Status.OPTIMAL
    # A cut that actually binds: forbid the current all-or-nothing optimum.
    body = sum(VarRef(f"x{i}") for i in range(5))
    solver.add_row(body, -math.inf, 2.0)
    second = solver.solve({}, basis=solver.last_basis)
    assert second.status is Status.OPTIMAL
    assert sum(v for k, v in second.values.items() if k.startswith("x")) <= 2 + 1e-9
