#!/usr/bin/env python3
"""A tour of the MINLP toolkit (the AMPL + MINOTAUR stand-in).

Walks through the machinery the HSLB pipeline uses under the hood:

1. declarative modeling with operator overloading (the AMPL role);
2. symbolic differentiation and outer-approximation cuts (paper eq. 4);
3. the solver zoo — LP/NLP single-tree B&B, multi-tree OA, NLP-based B&B,
   and §III-E's direct heap on the two curves — all agreeing on a convex
   model;
4. the performance-model fitting layer (Table II) recovering known
   parameters from noisy scaling data.

Usage:  python examples/solver_tour.py
"""

import numpy as np

from repro.core.greedy import greedy_minmax_allocation
from repro.minlp import (
    Model,
    linearize,
    solve_minlp_nlpbb,
    solve_minlp_oa,
    solve_minlp_oa_multitree,
)
from repro.minlp.expr import VarRef
from repro.perf.fitting import fit_performance_model
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng


def section(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    section("1. modeling")
    m = Model("two-component allocation")
    t = m.var("T", lb=0.0, ub=1e4)
    n1 = m.integer_var("n1", 1, 60)
    n2 = m.integer_var("n2", 1, 60)
    m.add(t >= 480.0 / n1 + 3.0, "comp1")
    m.add(t >= 240.0 / n2 + 1.0, "comp2")
    m.add(n1 + n2 <= 64, "capacity")
    m.minimize(t)
    problem = m.build()
    print(problem)
    for con in problem.constraints:
        kind = "linear" if con.is_linear() else "nonlinear"
        print(f"  {con.name}: {kind}")

    section("2. symbolic derivatives and OA cuts")
    n = VarRef("n")
    perf = 480.0 / n + 0.001 * n**1.5 + 3.0
    print("T(n)      =", perf)
    print("dT/dn     =", perf.diff("n"))
    print("T(32)     =", f"{perf.evaluate({'n': 32.0}):.4f}")
    cut = linearize(perf, {"n": 32.0})
    print("cut @32   =", cut)
    print("cut is a global under-estimator of the convex T:",
          all(
              cut.evaluate({"n": x}) <= perf.evaluate({"n": x}) + 1e-9
              for x in (2.0, 16.0, 55.0)
          ))

    section("3. the solver zoo agrees")
    for name, solver in [
        ("LP/NLP single-tree B&B (the paper's)", solve_minlp_oa),
        ("multi-tree outer approximation", solve_minlp_oa_multitree),
        ("NLP-based branch-and-bound", solve_minlp_nlpbb),
    ]:
        sol = solver(problem)
        print(
            f"  {name:38s} T*={sol.objective:8.4f}  "
            f"n1={sol.values['n1']:.0f} n2={sol.values['n2']:.0f}  "
            f"[{sol.status.value}]"
        )
    # The same two curves as PerformanceModels: the heap needs no tree.
    curves = {
        "n1": PerformanceModel(a=480.0, b=0.0, c=1.0, d=3.0),
        "n2": PerformanceModel(a=240.0, b=0.0, c=1.0, d=1.0),
    }
    alloc, makespan = greedy_minmax_allocation(curves, 64)
    print(
        f"  {'direct heap (§III-E, no tree)':38s} T*={makespan:8.4f}  "
        f"n1={alloc['n1']} n2={alloc['n2']}  [exact]"
    )

    section("4. fitting the performance model (Table II)")
    truth = PerformanceModel(a=27380.0, b=1e-3, c=1.0, d=43.0)  # 1-degree atm
    rng = default_rng(0)
    nodes = np.array([32.0, 64.0, 128.0, 512.0, 2048.0])
    observed = truth.time(nodes) * np.exp(rng.normal(0, 0.02, nodes.size))
    fit = fit_performance_model(nodes, observed, rng=rng)
    print(f"  truth:  {truth!r}")
    print(f"  fitted: {fit.model!r}")
    print(f"  R^2 = {fit.r_squared:.5f} over D = {fit.n_points} points")
    probe = 1024.0
    print(
        f"  prediction at n={probe:.0f}: fitted {fit.model.time(probe):.2f} s "
        f"vs truth {truth.time(probe):.2f} s"
    )


if __name__ == "__main__":
    main()
