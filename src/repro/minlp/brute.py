"""Exhaustive reference solver for small MINLPs.

Enumerates every discrete assignment (integer grids × SOS1 choices) and
solves the continuous completion for each.  Exponential by construction —
it exists so that tests can certify the branch-and-bound and
outer-approximation solvers against ground truth on miniature instances.
"""

from __future__ import annotations

import itertools
import math

from repro.minlp.nlp import solve_nlp
from repro.minlp.presolve import presolve
from repro.minlp.problem import Problem, Sense
from repro.minlp.solution import Solution, SolveStats, Status

#: Largest constraint violation an enumerated point may carry.
_FEAS_TOL = 1e-6


def enumerate_assignments(problem: Problem, *, limit: int = 200_000):
    """Yield bound-fix dictionaries covering every discrete assignment.

    Raises ``ValueError`` when the grid would exceed ``limit`` combinations —
    a guard against accidentally brute-forcing a production-sized model.
    """
    axes: list[list[tuple[str, float]]] = []
    sos_member_names = {m for s in problem.sos1_sets for m in s.members}
    for var in problem.discrete_variables():
        if var.name in sos_member_names:
            continue  # enumerated through the SOS axis below
        if not (math.isfinite(var.lb) and math.isfinite(var.ub)):
            raise ValueError(f"discrete variable {var.name} is unbounded")
        values = [float(v) for v in range(int(math.ceil(var.lb)), int(math.floor(var.ub)) + 1)]
        if not values:
            return  # empty domain: no assignments at all
        axes.append([(var.name, v) for v in values])

    # One axis per SOS1 set: which single member is allowed to be nonzero.
    sos_axes: list[list[tuple[str, ...]]] = [
        [(m,) for m in sos.members] for sos in problem.sos1_sets
    ]

    total = 1
    for ax in axes:
        total *= len(ax)
    for ax in sos_axes:
        total *= len(ax)
    if total > limit:
        raise ValueError(f"brute force would enumerate {total} assignments (> {limit})")

    for combo in itertools.product(*axes) if axes else [()]:
        base = {name: (v, v) for name, v in combo}
        for sos_combo in itertools.product(*sos_axes) if sos_axes else [()]:
            fixes = dict(base)
            ok = True
            for sos, chosen in zip(problem.sos1_sets, sos_combo):
                for m in sos.members:
                    if m in chosen:
                        continue
                    var = problem.variable(m)
                    if var.lb > 0.0 or var.ub < 0.0:
                        ok = False
                        break
                    fixes[m] = (0.0, 0.0)
                if not ok:
                    break
            if ok:
                yield fixes


def solve_brute_force(problem: Problem) -> Solution:
    """Globally solve a small MINLP by total enumeration."""
    sign = -1.0 if problem.sense is Sense.MAXIMIZE else 1.0
    stats = SolveStats()
    best: dict[str, float] | None = None
    best_signed = math.inf

    has_continuous = any(not v.is_discrete for v in problem.variables)
    for fixes in enumerate_assignments(problem):
        stats.nodes_explored += 1
        # Propagate the fixings first: a lone SOS member left facing its
        # convexity row (``z_k = 1`` with ``z_k <= 1``) is the degenerate
        # equality-at-a-bound SLSQP can stop short on, and bound propagation
        # pins it so solve_nlp substitutes it out.
        fixed, report = presolve(problem.with_bounds(fixes))
        if report.infeasible:
            continue
        if has_continuous:
            sub = solve_nlp(fixed)
            stats.nlp_solves += sub.stats.nlp_solves
            if not sub.status.is_ok:
                continue
            values = sub.values
        else:
            values = {v.name: fixed.variable(v.name).lb for v in fixed.variables}
        if problem.max_violation(values) > _FEAS_TOL:
            continue
        obj = problem.objective_value(values)
        if sign * obj < best_signed:
            best_signed = sign * obj
            best = dict(values)
            stats.incumbent_updates += 1

    if best is None:
        return Solution(Status.INFEASIBLE, stats=stats, message="enumeration exhausted")
    obj = sign * best_signed
    return Solution(Status.OPTIMAL, values=best, objective=obj, bound=obj, stats=stats)
