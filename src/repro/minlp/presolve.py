"""Presolve: bound tightening over linear constraints.

A miniature version of the reformulation routines the paper credits to
MINOTAUR ("includes advanced routines to reformulate MINLPs").  Only safe,
feasibility-preserving reductions are applied:

* **activity-based bound propagation** on linear rows — for a row
  ``lb <= sum a_j x_j <= ub``, each variable's implied bounds from the other
  variables' activities tighten its explicit bounds;
* **integer bound rounding** — integer variables get ceil/floor'ed bounds.

Propagation iterates to a fixed point (with an iteration cap, as the
tightening is monotone but can converge asymptotically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.minlp.problem import Domain, Problem


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
