"""Nonlinear-programming layer: continuous relaxation / subproblem solves.

Plays the role filterSQP plays inside MINOTAUR: given a (continuous)
:class:`Problem`, find a KKT point.  Objective/constraint gradients come from
the symbolic differentiation in :mod:`repro.minlp.expr` — no finite
differencing.  Because the load-balancing models in this library are convex
(all fitted coefficients nonnegative, exponents >= 1), a local solution is
global; for general use a ``multistart`` option restarts from random interior
points and keeps the best feasible result.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.minlp.expr import Expr
from repro.minlp.linprog import LinearProgram, solve_lp
from repro.minlp.problem import Problem, vector_to_values
from repro.minlp.projection import Projection, project_sos1
from repro.minlp.solution import Solution, SolveStats, Status
from repro.obs.trace import span
from repro.util.rng import default_rng
from repro.util.timing import Timer

#: Fallback half-width of the sampling box for unbounded variables.
_BIG = 1e4

#: scipy termination tolerance and iteration cap of one SLSQP run.
_TOL = 1e-9
_MAX_ITER = 300
#: Largest constraint violation a returned point may carry.
_FEAS_TOL = 1e-6


class _Iterate:
    """The clipped name -> value view of the current iterate.

    scipy evaluates the objective, every constraint and all their gradients
    at the same ``x`` before moving on; the mapping is built once per
    distinct ``x`` and shared by all of those closures.
    """

    def __init__(self, names: tuple[str, ...], lo: np.ndarray, hi: np.ndarray) -> None:
        self._names = names
        self._lo = lo
        self._hi = hi
        self._key: bytes | None = None
        self._values: dict[str, float] = {}

    def at(self, x: np.ndarray) -> dict[str, float]:
        key = x.tobytes()
        if key != self._key:
            self._key = key
            self._values = dict(zip(self._names, np.clip(x, self._lo, self._hi)))
        return self._values


class _Compiled:
    """Expression compiled against a fixed variable ordering.

    Affine expressions get a constant gradient straight from their
    coefficients — no symbolic differentiation.  This matters: HSLB masters
    carry sum-over-hundreds-of-binaries rows whose term-by-term product-rule
    walk would dominate solve time.
    """

    def __init__(self, expr: Expr, names: tuple[str, ...], iterate: _Iterate) -> None:
        self.expr = expr
        self._iterate = iterate
        self._const_grad: np.ndarray | None = None
        self.grad_exprs: list[Expr] | None = None
        try:
            coeffs, _ = expr.linear_coefficients()
        except Exception:
            active = expr.variables()
            # Only differentiate w.r.t. variables that actually appear.
            self.grad_exprs = [
                expr.diff(n) if n in active else None for n in names
            ]
        else:
            self._const_grad = np.array(
                [coeffs.get(n, 0.0) for n in names], dtype=float
            )

    def value(self, x: np.ndarray) -> float:
        return float(self.expr.evaluate(self._iterate.at(x)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self._const_grad is not None:
            return self._const_grad.copy()
        values = self._iterate.at(x)
        return np.array(
            [0.0 if g is None else g.evaluate(values) for g in self.grad_exprs],
            dtype=float,
        )


def _sample_box(problem: Problem, rng: np.random.Generator) -> np.ndarray:
    lo = np.array([max(v.lb, -_BIG) for v in problem.variables])
    hi = np.array([min(v.ub, _BIG) for v in problem.variables])
    return rng.uniform(lo, hi)


def _initial_point(problem: Problem) -> np.ndarray:
    """Deterministic starting point: the box midpoint, clipped to finite."""
    x0 = []
    for v in problem.variables:
        lb = v.lb if math.isfinite(v.lb) else -_BIG
        ub = v.ub if math.isfinite(v.ub) else _BIG
        x0.append(0.5 * (lb + ub))
    return np.array(x0)


def solve_nlp(
    problem: Problem,
    x0: np.ndarray | dict[str, float] | None = None,
    *,
    multistart: int = 1,
    rng: np.random.Generator | None = None,
) -> Solution:
    """Solve the continuous problem, ignoring integrality and SOS1 sets.

    Selection variables of SOS1 sets that :func:`project_sos1` finds
    eligible are not handed to scipy; they are reconstructed for the
    returned point, so ``Solution.values`` is always complete.

    Optional warm start ``x0`` and ``multistart`` extra random restarts;
    every run is scipy's SLSQP.  Returns the best feasible KKT point found;
    ``Status.INFEASIBLE`` when every start ends infeasible.
    """
    # Substitute out variables pinned by equal bounds.  SLSQP mishandles
    # degenerate lb == ub box constraints (it can declare success at an
    # arbitrary feasible point), and branch-and-bound produces exactly such
    # problems constantly — so the reduction is done here, once, for every
    # caller.
    reduced = problem.reduce_fixed()
    if reduced is None:
        return Solution(
            Status.INFEASIBLE,
            stats=SolveStats(nlp_solves=1),
            message="fixed variables violate a constraint",
        )
    free, pinned = reduced
    if pinned and free.num_variables == 0:
        values = dict(pinned)
        viol = max((c.violation(values) for c in problem.constraints), default=0.0)
        if viol > _FEAS_TOL:
            return Solution(
                Status.INFEASIBLE,
                stats=SolveStats(nlp_solves=1),
                message="fully pinned and infeasible",
            )
        return Solution(
            Status.OPTIMAL,
            values=values,
            objective=problem.objective_value(values),
            stats=SolveStats(nlp_solves=1),
        )
    if x0 is not None and not isinstance(x0, dict):
        x0 = dict(zip(problem.variable_names, np.asarray(x0, dtype=float)))

    # Likewise for every caller: selection variables of eligible SOS1 sets
    # are projected out of the relaxation and lifted back into the answer.
    projection = project_sos1(free)
    if projection is None:
        return Solution(
            Status.INFEASIBLE,
            stats=SolveStats(nlp_solves=1),
            message="no SOS1 member choice satisfies a row",
        )
    sol, exact = _solve_projected(free, projection, x0, multistart, rng)
    if not exact:
        # Some row pattern is jointly tighter than its per-row intervals:
        # this relaxation is solved in the full space, and both are counted.
        spent = sol.stats
        sol, _ = _solve_projected(free, Projection(free), x0, multistart, rng)
        sol.stats.merge(spent)
    if sol.status.is_ok:
        sol.values = {**sol.values, **pinned}
    return sol


def _solve_projected(
    problem: Problem,
    projection: Projection,
    x0: dict[str, float] | None,
    multistart: int,
    rng: np.random.Generator | None,
) -> tuple[Solution, bool]:
    """Solve ``projection.problem``; answer for ``problem``.

    A problem that is affine throughout is an LP and is solved as one — with
    the integers fixed, every OA subproblem of the paper's models is
    ``min T  s.t.  T >= const_j`` — anything else goes to scipy.  Every
    candidate is lifted back and checked against ``problem`` itself.  The
    flag is False when a lift failed: the projection was not exact, and
    neither the answer nor an INFEASIBLE can be trusted.
    """
    small = projection.problem
    sign = -1.0 if small.sense.value == "maximize" else 1.0
    lo = np.array([v.lb for v in small.variables])
    hi = np.array([v.ub for v in small.variables])
    linear = small.is_linear()
    runs = _scipy_runs(small, x0, lo, hi, multistart, rng)
    if linear:
        runs = _lp_run(small, runs)

    stats = SolveStats()
    best: Solution | None = None
    exact = True
    timer = Timer().start()
    with span(
        "minlp.nlp",
        layer="minlp.nlp",
        vars=small.num_variables,
        eliminated=len(projection.members),
        linear=linear,
    ) as nlp_span:
        for run in runs:
            stats.nlp_solves += 1
            if run is None:
                continue
            x, converged, message = run
            values = projection.lift(vector_to_values(small, np.clip(x, lo, hi)))
            if values is None:
                exact = False
                continue
            viol = max(
                (c.violation(values) for c in problem.constraints), default=0.0
            )
            if viol > _FEAS_TOL:
                continue
            objective = problem.objective_value(values)
            better = best is None or (
                sign * objective < sign * best.objective - 1e-12
            )
            if better:
                best = Solution(
                    Status.OPTIMAL if converged else Status.FEASIBLE,
                    values=values,
                    objective=objective,
                    bound=-math.inf if sign > 0 else math.inf,
                    message=message,
                )
        nlp_span.set_tag("lifted", best is not None and bool(projection.members))
    stats.wall_time = timer.stop()
    if best is None:
        best = Solution(Status.INFEASIBLE, message="no feasible KKT point")
    best.stats = stats
    return best, exact


#: One engine run: ``(x, converged, message)``, or None when it produced no point.
_Run = tuple[np.ndarray, bool, str] | None


def _lp_run(small: Problem, fallback: Iterator[_Run]) -> Iterator[_Run]:
    """The LP optimum of an affine ``small`` as the single run.

    An infeasible LP is a run without a point; an unbounded one (or an engine
    failure) is left to ``fallback``, so those answers stay what they were.
    """
    lp = LinearProgram.from_problem(small)
    res = solve_lp(lp)
    if res.status is Status.OPTIMAL:
        yield res.x, True, "LP optimal"
    elif res.status is Status.INFEASIBLE:
        yield None
    else:
        yield from fallback


def _scipy_runs(
    small: Problem,
    x0: dict[str, float] | None,
    lo: np.ndarray,
    hi: np.ndarray,
    multistart: int,
    rng: np.random.Generator | None,
) -> Iterator[_Run]:
    """One scipy run from the warm/default start, then the random restarts."""
    # Imported where SLSQP is called: min-max / max-min answers and closed-form
    # or LP subproblems never reach this generator, so they never load scipy.
    from scipy.optimize import minimize

    names = small.variable_names
    sign = -1.0 if small.sense.value == "maximize" else 1.0
    iterate = _Iterate(names, lo, hi)
    obj = _Compiled(small.objective, names, iterate)

    def fun(x: np.ndarray) -> float:
        return sign * obj.value(x)

    def jac(x: np.ndarray) -> np.ndarray:
        return sign * obj.grad(x)

    # scipy's dict-constraint convention: ineq means g(x) >= 0.
    cons = []
    for con in small.constraints:
        comp = _Compiled(con.body, names, iterate)
        if con.is_equality:
            cons.append(
                {
                    "type": "eq",
                    "fun": (lambda x, c=comp, b=con.lb: c.value(x) - b),
                    "jac": comp.grad,
                }
            )
            continue
        if math.isfinite(con.ub):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, c=comp, b=con.ub: b - c.value(x)),
                    "jac": (lambda x, c=comp: -c.grad(x)),
                }
            )
        if math.isfinite(con.lb):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, c=comp, b=con.lb: c.value(x) - b),
                    "jac": comp.grad,
                }
            )

    bounds = [
        (v.lb if math.isfinite(v.lb) else None, v.ub if math.isfinite(v.ub) else None)
        for v in small.variables
    ]

    start = _initial_point(small)
    if x0 is not None:
        # Partial warm starts are fine: unnamed variables begin at the
        # default midpoint, and out-of-bounds donor values are clipped.
        start = np.array([float(x0.get(n, d)) for n, d in zip(names, start)])
    starts = [start]
    if multistart > 1:
        rng = rng or default_rng()
        starts.extend(_sample_box(small, rng) for _ in range(multistart - 1))

    for start in starts:
        try:
            res = minimize(
                fun,
                np.clip(start, lo, hi),
                jac=jac,
                bounds=bounds,
                constraints=cons,
                method="SLSQP",
                tol=_TOL,
                options={"maxiter": _MAX_ITER},
            )
        except (ValueError, FloatingPointError, ZeroDivisionError, OverflowError):
            yield None
            continue
        yield np.asarray(res.x, dtype=float), bool(res.success), str(res.message)
