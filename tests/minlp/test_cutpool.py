"""OA cut pool: memoization, stable names, quantization, and OA integration."""

import math

import pytest

from repro.minlp import BnBOptions, Model, OACutPool, solve_minlp_oa
from repro.minlp.cutpool import _POINT_DECIMALS
from repro.minlp.problem import Constraint
from repro.minlp.expr import VarRef
from repro.minlp.solution import Status


def _con(name="g"):
    # g(x) = x^2 <= 4 — convex, single-sided.
    x = VarRef("x")
    return Constraint(name, x * x, -math.inf, 4.0)


def test_cut_for_memoizes_and_names_stably():
    pool = OACutPool()
    c1 = pool.cut_for(_con(), {"x": 1.0})
    c2 = pool.cut_for(_con(), {"x": 1.0})
    assert c1[0] == c2[0]
    assert c1[1] is c2[1]  # cached Expr object, not a rebuild
    assert pool.stats.hits == 1 and pool.stats.misses == 1
    # A fresh pool derives the identical name for the identical key.
    other = OACutPool()
    assert other.cut_for(_con(), {"x": 1.0})[0] == c1[0]


def test_point_quantization_merges_nearby_points():
    pool = OACutPool()
    eps = 10 ** -(_POINT_DECIMALS + 2)
    a = pool.cut_for(_con(), {"x": 1.0})
    b = pool.cut_for(_con(), {"x": 1.0 + eps})
    c = pool.cut_for(_con(), {"x": 1.5})
    assert a[0] == b[0]
    assert a[0] != c[0]
    assert len(pool) == 2


def _minlp(seed=0):
    m = Model(f"pool-oa{seed}")
    x = m.integer_var("x", 1, 10)
    t = m.var("t", lb=0.0)
    m.add(t >= 100.0 / x + 2.0 * x)
    m.minimize(t)
    return m.build()


def test_multitree_dedups_repeated_linearization_points():
    from repro.minlp import solve_minlp_oa_multitree

    problem = _minlp(1)
    sol = solve_minlp_oa_multitree(problem, BnBOptions())
    assert sol.status in (Status.OPTIMAL, Status.FEASIBLE)
    ref = solve_minlp_oa(problem, BnBOptions())
    assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
