"""Tests for pseudocost branching."""

import pytest

from repro.minlp.bnb import BnBOptions
from repro.minlp.brute import solve_brute_force
from repro.minlp.milp import solve_milp
from repro.minlp.modeling import Model
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.problem import Domain
from repro.minlp.solution import Status


def _alloc_problem(budget=12):
    m = Model("pc-alloc")
    t = m.var("T", 0, 1e4)
    na = m.integer_var("na", 1, budget - 1)
    no = m.integer_var("no", 1, budget - 1)
    m.add(na + no <= budget)
    m.add(t >= 100.0 / na + 2.0)
    m.add(t >= 60.0 / no + 1.0)
    m.minimize(t)
    return m.build()


def _hard_milp():
    """A MILP whose LP relaxation is fractional in many variables."""
    m = Model("pc")
    zs = m.var_list("z", 10, 0, 1, domain=Domain.BINARY)
    weights = [3, 5, 7, 9, 11, 13, 17, 19, 23, 29]
    values = [4, 7, 9, 12, 14, 17, 22, 25, 30, 37]
    m.add(sum(w * z for w, z in zip(weights, zs)) <= 58)
    m.maximize(sum(v * z for v, z in zip(values, zs)))
    return m.build()


def test_pseudocost_rule_correctness():
    p = _hard_milp()
    default = solve_milp(p, BnBOptions(branch_rule="most_fractional"))
    pseudo = solve_milp(p, BnBOptions(branch_rule="pseudocost"))
    assert pseudo.status is Status.OPTIMAL
    assert pseudo.objective == pytest.approx(default.objective)


def test_pseudocost_on_minlp():
    p = _alloc_problem(budget=40)
    ref = solve_brute_force(p)
    sol = solve_minlp_oa(p, BnBOptions(branch_rule="pseudocost"))
    assert sol.objective == pytest.approx(ref.objective, rel=1e-5)


def test_pseudocost_learns_history():
    from repro.minlp.bnb import BranchAndBound

    engine = BranchAndBound(_hard_milp(), "lp", BnBOptions(branch_rule="pseudocost"))
    engine.solve()
    # Some branching history must have accumulated.
    assert engine._pseudo
    for total, count in engine._pseudo.values():
        assert count >= 1 and total >= 0.0


def test_unknown_branch_rule_behaves_like_most_fractional():
    # Unknown rules fall through to the default heuristic (documented).
    p = _hard_milp()
    sol = solve_milp(p, BnBOptions(branch_rule="mystery"))
    assert sol.status is Status.OPTIMAL
