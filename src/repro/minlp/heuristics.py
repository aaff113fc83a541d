"""Primal heuristics: cheap feasible points for warm starts and gap closing.

Two classics:

* :func:`rounding_heuristic` — round the relaxation, fix, re-optimize the
  continuous rest (how a practitioner hand-rounds a fractional allocation);
* :func:`diving_heuristic` — repeatedly fix the *most integral* fractional
  variable to its nearest value and re-solve the relaxation, diving down a
  single root-to-leaf path of the branch-and-bound tree.  Slower than
  rounding, feasible more often on tightly coupled models.

Plus the glue that makes external warm starts usable:

* :func:`warm_start_incumbent` — complete a (possibly partial) point — a
  greedy allocation, a neighboring cached solution — into a certified
  feasible incumbent the branch-and-bound engines can prune against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution, Status

#: A dive's end point: integral to ``_INT_TOL``, feasible to ``_FEAS_TOL``.
_INT_TOL = 1e-6
_FEAS_TOL = 1e-6


def _nearest_sos_choice(problem: Problem, values: dict[str, float]) -> dict[str, tuple[float, float]]:
    """For each SOS1 set, keep only the member with the largest magnitude."""
    fixes: dict[str, tuple[float, float]] = {}
    for sos in problem.sos1_sets:
        best = max(sos.members, key=lambda m: abs(values.get(m, 0.0)))
        for m in sos.members:
            if m != best:
                fixes[m] = (0.0, 0.0)
    return fixes


def rounding_heuristic(
    problem: Problem, relaxation_values: dict[str, float]
) -> Solution:
    """Round a relaxation point to a discrete-feasible candidate.

    Discrete variables are rounded to the nearest integer inside their
    bounds; SOS1 sets are resolved to their largest member; the remaining
    continuous variables are re-optimized with an NLP solve.  Returns
    ``Status.INFEASIBLE`` when the rounded assignment admits no feasible
    continuous completion.
    """
    fixes: dict[str, tuple[float, float]] = {}
    for var in problem.discrete_variables():
        x = float(np.clip(round(relaxation_values[var.name]), var.lb, var.ub))
        fixes[var.name] = (x, x)
    fixes.update(_nearest_sos_choice(problem, relaxation_values))

    sub = solve_nlp(problem.with_bounds(fixes), x0=relaxation_values)
    if not sub.status.is_ok:
        return Solution(Status.INFEASIBLE, message="rounding produced no feasible point")
    if problem.max_violation(sub.values) > _FEAS_TOL:
        return Solution(Status.INFEASIBLE, message="rounded point violates the model")
    return Solution(
        Status.FEASIBLE,
        values=sub.values,
        objective=problem.objective_value(sub.values),
        bound=-math.inf,
        message="rounding heuristic",
    )


def warm_start_incumbent(problem: Problem, point: dict[str, float]) -> Solution:
    """Turn a warm-start ``point`` into a certified feasible incumbent.

    ``point`` may be partial (e.g. only the ``n_<component>`` counts of a
    greedy allocation) and may omit auxiliary binaries or epigraph
    variables.  Discrete variables present in the point are pinned at their
    rounded values, the continuous relaxation is re-optimized under those
    pins, and any remaining discrete freedom is resolved by the rounding
    heuristic.  Returns ``Status.INFEASIBLE`` when the point admits no
    feasible completion — callers then simply solve cold.
    """
    fixes: dict[str, tuple[float, float]] = {}
    for var in problem.discrete_variables():
        if var.name in point:
            x = float(np.clip(round(point[var.name]), var.lb, var.ub))
            fixes[var.name] = (x, x)
    rel = solve_nlp(problem.with_bounds(fixes), x0=dict(point))
    if not rel.status.is_ok:
        return Solution(
            Status.INFEASIBLE, message="warm-start point admits no completion"
        )
    out = rounding_heuristic(problem, rel.values)
    # The completion cost (pinned relaxation + rounding's re-optimize) must
    # show up in the caller's accounting or warm solves look cheaper than
    # they are.
    out.stats.nlp_solves += rel.stats.nlp_solves + 1
    return out


def diving_heuristic(problem: Problem, *, max_dives: int | None = None) -> Solution:
    """Fractional diving: fix one variable per relaxation solve.

    Each round solves the continuous relaxation under the accumulated
    fixings, then fixes the fractional discrete variable *closest* to an
    integer at its rounded value (least-damage-first).  SOS1 sets are
    resolved the same way: once every member is integral, the largest is
    kept.  Terminates with a feasible incumbent or ``Status.INFEASIBLE``
    when a dive renders the relaxation infeasible.
    """
    fixes: dict[str, tuple[float, float]] = {}
    discrete = [v.name for v in problem.discrete_variables()]
    budget = max_dives if max_dives is not None else len(discrete) + len(problem.sos1_sets)

    for _ in range(budget + 1):
        rel = solve_nlp(problem.with_bounds(fixes))
        if not rel.status.is_ok:
            return Solution(Status.INFEASIBLE, message="dive hit an infeasible fixing")
        fractional = [
            (name, rel.values[name])
            for name in discrete
            if name not in fixes
            and abs(rel.values[name] - round(rel.values[name])) > _INT_TOL
        ]
        if not fractional:
            # Integrality done; resolve any SOS sets, then certify.
            sos_fixes = _nearest_sos_choice(problem, rel.values)
            new_sos = {k: v for k, v in sos_fixes.items() if k not in fixes}
            if new_sos:
                fixes.update(new_sos)
                continue
            if problem.max_violation(rel.values) > _FEAS_TOL:
                return Solution(
                    Status.INFEASIBLE, message="dive converged to an invalid point"
                )
            return Solution(
                Status.FEASIBLE,
                values=rel.values,
                objective=problem.objective_value(rel.values),
                bound=-math.inf,
                message="diving heuristic",
            )
        # Fix the most integral fractional variable at its nearest value.
        name, value = min(
            fractional, key=lambda nv: abs(nv[1] - round(nv[1]))
        )
        var = problem.variable(name)
        target = float(np.clip(round(value), var.lb, var.ub))
        fixes[name] = (target, target)
    return Solution(Status.ITERATION_LIMIT, message="dive budget exhausted")
