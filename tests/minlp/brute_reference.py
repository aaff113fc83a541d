"""Reference exhaustive solver for small MINLPs, with the bound presolve it uses.

**Validation oracle**, not a solver a pipeline calls (compare
``tests/minlp/simplex_reference.py``): :func:`solve_brute_force` enumerates
every discrete assignment (integer grids × SOS1 choices) and solves the
continuous completion for each.  It is exponential by construction and
exists so that tests can certify the branch-and-bound, outer-approximation
and direct algorithms against ground truth on miniature instances;
:func:`enumerate_assignments` refuses a grid of more than 200 000
assignments.

:func:`presolve` tightens bounds over the linear rows before each
completion.  Only safe, feasibility-preserving reductions are applied:

* **activity-based bound propagation** on linear rows — for a row
  ``lb <= sum a_j x_j <= ub``, each variable's implied bounds from the other
  variables' activities tighten its explicit bounds;
* **integer bound rounding** — integer variables get ceil/floor'ed bounds.

Propagation iterates to a fixed point (with an iteration cap, as the
tightening is monotone but can converge asymptotically).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Domain, Problem, Sense
from repro.minlp.solution import Solution, SolveStats, Status


@dataclass
class PresolveReport:
    """What presolve did, for logging and tests."""

    rounds: int = 0
    bounds_tightened: int = 0
    infeasible: bool = False
    fixed_variables: tuple[str, ...] = field(default_factory=tuple)


#: Propagation sweeps over the linear rows before presolve settles.
_MAX_ROUNDS = 20
#: Smallest bound movement that counts as a tightening.
_TOL = 1e-9


def _round_integer_bounds(lb: float, ub: float) -> tuple[float, float]:
    new_lb = math.ceil(lb - 1e-9) if math.isfinite(lb) else lb
    new_ub = math.floor(ub + 1e-9) if math.isfinite(ub) else ub
    return float(new_lb), float(new_ub)


def presolve(problem: Problem) -> tuple[Problem, PresolveReport]:
    """Return a bound-tightened copy of ``problem`` plus a report.

    If propagation proves infeasibility, the returned problem is the input
    and ``report.infeasible`` is set — callers decide how to surface it.
    """
    report = PresolveReport()
    bounds = {v.name: [v.lb, v.ub] for v in problem.variables}
    domains = {v.name: v.domain for v in problem.variables}

    # Initial integer rounding.
    for name, b in bounds.items():
        if domains[name] in (Domain.INTEGER, Domain.BINARY):
            new_lb, new_ub = _round_integer_bounds(b[0], b[1])
            if new_lb > b[0] + _TOL or new_ub < b[1] - _TOL:
                report.bounds_tightened += 1
            b[0], b[1] = new_lb, new_ub
            if b[0] > b[1]:
                report.infeasible = True
                return problem, report

    linear_rows = []
    for con in problem.constraints:
        if con.is_linear():
            coeffs, k = con.body.linear_coefficients()
            coeffs = {n: c for n, c in coeffs.items() if c != 0.0}
            if coeffs:
                linear_rows.append((coeffs, con.lb - k, con.ub - k))
            elif not (con.lb - _TOL <= k <= con.ub + _TOL):
                report.infeasible = True
                return problem, report

    for _ in range(_MAX_ROUNDS):
        changed = False
        report.rounds += 1
        for coeffs, row_lb, row_ub in linear_rows:
            # Row activity bounds from current variable bounds.
            act_lo = 0.0
            act_hi = 0.0
            for n, c in coeffs.items():
                lo, hi = bounds[n]
                if c > 0:
                    act_lo += c * lo
                    act_hi += c * hi
                else:
                    act_lo += c * hi
                    act_hi += c * lo
            for n, c in coeffs.items():
                lo, hi = bounds[n]
                # Activity of the row excluding variable n.
                if c > 0:
                    rest_lo = act_lo - c * lo
                    rest_hi = act_hi - c * hi
                else:
                    rest_lo = act_lo - c * hi
                    rest_hi = act_hi - c * lo
                # row_lb <= c*x + rest <= row_ub
                new_lo, new_hi = lo, hi
                if c > 0:
                    if math.isfinite(row_ub) and math.isfinite(rest_lo):
                        new_hi = min(new_hi, (row_ub - rest_lo) / c)
                    if math.isfinite(row_lb) and math.isfinite(rest_hi):
                        new_lo = max(new_lo, (row_lb - rest_hi) / c)
                else:
                    if math.isfinite(row_ub) and math.isfinite(rest_lo):
                        new_lo = max(new_lo, (row_ub - rest_lo) / c)
                    if math.isfinite(row_lb) and math.isfinite(rest_hi):
                        new_hi = min(new_hi, (row_lb - rest_hi) / c)
                if domains[n] in (Domain.INTEGER, Domain.BINARY):
                    new_lo, new_hi = _round_integer_bounds(new_lo, new_hi)
                if new_lo > lo + _TOL or new_hi < hi - _TOL:
                    bounds[n][0] = max(lo, new_lo)
                    bounds[n][1] = min(hi, new_hi)
                    report.bounds_tightened += 1
                    changed = True
                    if bounds[n][0] > bounds[n][1] + _TOL:
                        report.infeasible = True
                        return problem, report
        if not changed:
            break

    fixed = tuple(
        n for n, (lo, hi) in bounds.items() if math.isfinite(lo) and abs(hi - lo) <= _TOL
    )
    report.fixed_variables = fixed
    tightened = problem.with_bounds({n: (lo, hi) for n, (lo, hi) in bounds.items()})
    return tightened, report


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
