"""Cross-validation of the MINLP solvers (OA single-tree, OA multi-tree,
NLP-based B&B) against brute-force enumeration on small convex instances."""

import pytest

from tests.minlp.brute_reference import enumerate_assignments, solve_brute_force
from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa, solve_minlp_oa_multitree
from repro.minlp.problem import Domain
from repro.minlp.solution import Status

ALL_SOLVERS = [solve_minlp_oa, solve_minlp_oa_multitree, solve_minlp_nlpbb]


def _tiny_alloc():
    """Two-component min-max allocation with 12 nodes total."""
    m = Model("tiny")
    t = m.var("T", 0, 1e4)
    na = m.integer_var("na", 1, 11)
    no = m.integer_var("no", 1, 11)
    m.add(na + no <= 12)
    m.add(t >= 100.0 / na + 2.0)
    m.add(t >= 60.0 / no + 1.0)
    m.minimize(t)
    return m.build()


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_tiny_alloc_matches_brute(solver):
    p = _tiny_alloc()
    ref = solve_brute_force(p)
    sol = solver(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.objective, rel=1e-5)
    assert sol.values["na"] == pytest.approx(ref.values["na"])


def test_tiny_alloc_known_optimum():
    # Enumerate by hand: na+no=12; t = max(100/na+2, 60/no+1).
    best = min(
        max(100.0 / na + 2.0, 60.0 / (12 - na) + 1.0) for na in range(1, 12)
    )
    sol = solve_minlp_oa(_tiny_alloc())
    assert sol.objective == pytest.approx(best, rel=1e-6)


def test_multitree_terminates_on_a_near_tie():
    """Two epigraph rows tie to 8e-6 at the optimum ``n = (7, 3, 3)``.

    The master's bound stops 8e-6 under the incumbent — below the cut
    tolerance, so no cut can close it — and then re-proposes the assignment
    it has already evaluated.  That is a proof of optimality; the solver
    used to spin to its round limit and answer ``FEASIBLE`` (found by the
    random solver zoo in ``test_properties.py``).
    """
    params = [
        (363.0, 0.0),
        (170.58984375, 3.499738620229889),
        (170.43711623290062, 3.550664046292778),
    ]
    m = Model("near-tie")
    t = m.var("T", 0, 1e5)
    ns = [m.integer_var(f"n{i}", 1, 13) for i in range(3)]
    m.add(sum(ns) <= 13)
    for n, (a, d) in zip(ns, params):
        m.add(t >= a / n + d)
    m.minimize(t)
    p = m.build()
    ref = solve_brute_force(p)
    sol = solve_minlp_oa_multitree(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    assert sol.stats.nlp_solves < 10  # stopped on the proof, not the limit


def _sos_alloc():
    """Allocation where one component's node count lives in a sweet-spot set."""
    m = Model("sos")
    t = m.var("T", 0, 1e4)
    ni = m.integer_var("ni", 1, 30)
    zs = m.var_list("z", 4, 0, 1, domain=Domain.BINARY)
    spots = [2.0, 6.0, 14.0, 30.0]
    na = m.var("na", 2, 30)
    m.add_equals(sum(zs), 1)
    m.add_equals(sum(s * z for s, z in zip(spots, zs)), na)
    m.sos1(zs, weights=spots)
    m.add(ni + na <= 32)
    m.add(t >= 50.0 / ni + 3.0)
    m.add(t >= 200.0 / na + 1.0)
    m.minimize(t)
    return m.build()


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_sos_alloc_matches_brute(solver):
    p = _sos_alloc()
    ref = solve_brute_force(p)
    sol = solver(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.objective, rel=1e-5)
    assert sol.values["na"] == pytest.approx(ref.values["na"])


def test_nonlinear_objective_epigraph_path():
    """OA must handle a nonlinear objective via epigraph reformulation."""
    m = Model()
    x = m.integer_var("x", 1, 20)
    m.minimize(150.0 / x + 3.0 * x)
    p = m.build()
    ref = solve_brute_force(p)
    for solver in ALL_SOLVERS:
        sol = solver(p)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
        assert "_oa_eta" not in sol.values


def test_oa_rejects_nonlinear_equality():
    m = Model()
    x = m.var("x", 1, 5)
    n = m.integer_var("n", 1, 5)
    m.add_equals(1 / x + n, 2)  # nonlinear equality: never convex both ways
    m.minimize(x + n)
    with pytest.raises(ValueError, match="equality"):
        solve_minlp_oa(m.build())


def test_oa_normalizes_ge_constraints():
    """t >= f(n) arrives as a finite-lower-bound row and must still solve."""
    m = Model()
    t = m.var("t", 0, 1e4)
    n = m.integer_var("n", 1, 20)
    m.add(t >= 144.0 / n + 4.0 * n)
    m.minimize(t)
    p = m.build()
    ref = solve_brute_force(p)
    sol = solve_minlp_oa(p)
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
    assert sol.values["n"] == pytest.approx(6.0)  # sqrt(144/4)


def test_nlpbb_answers_the_model_oa_refuses():
    m = Model()
    x = m.var("x", 1, 5)
    n = m.integer_var("n", 1, 5)
    m.add_equals(1 / x + n, 2)
    m.minimize(x + n)
    with pytest.raises(ValueError, match="equality"):
        solve_minlp_oa(m.build())
    sol = solve_minlp_nlpbb(m.build())
    assert sol.status.is_ok
    assert sol.objective == pytest.approx(2.0, abs=1e-4)  # x=1, n=1


def test_infeasible_minlp():
    m = Model()
    x = m.integer_var("x", 1, 3)
    t = m.var("t", 0, 1.0)
    m.add(t >= 10.0 / x)  # 10/3 > 1 for every x
    m.minimize(t)
    p = m.build()
    for solver in ALL_SOLVERS:
        assert solver(p).status is Status.INFEASIBLE


def test_pure_milp_through_oa():
    m = Model()
    x = m.integer_var("x", 0, 9)
    m.add(2 * x <= 11)
    m.maximize(x)
    sol = solve_minlp_oa(m.build())
    assert sol.objective == pytest.approx(5.0)


def test_the_nlp_layer_answers_an_lp_and_an_nlp():
    # LP
    m = Model()
    x = m.var("x", 0, 2)
    m.minimize(-x)
    assert solve_nlp(m.build()).objective == pytest.approx(-2.0)
    # NLP
    m = Model()
    x = m.var("x", 0.5, 4)
    m.minimize(1 / x + x)
    assert solve_nlp(m.build()).objective == pytest.approx(2.0, abs=1e-5)


def test_enumerate_assignments_counts():
    p = _sos_alloc()
    combos = list(enumerate_assignments(p))
    # 30 integer choices for ni x 4 SOS choices.
    assert len(combos) == 120


def test_enumerate_assignments_limit_guard():
    p = _tiny_alloc()
    with pytest.raises(ValueError, match="enumerate"):
        list(enumerate_assignments(p, limit=3))


def test_brute_force_integer_only_problem():
    m = Model()
    x = m.integer_var("x", 0, 5)
    y = m.integer_var("y", 0, 5)
    m.add(x + y >= 4)
    m.minimize(3 * x + y)
    sol = solve_brute_force(m.build())
    assert sol.status is Status.OPTIMAL
    assert sol.objective == pytest.approx(4.0)  # x=0, y=4


def test_solver_stats_populated():
    sol = solve_minlp_oa(_tiny_alloc())
    assert sol.stats.nlp_solves >= 1
    assert sol.stats.lp_solves >= 1
    assert sol.stats.cuts_added >= 1
    assert sol.stats.wall_time > 0.0
