"""Nonlinear-programming layer: continuous relaxation / subproblem solves.

Plays the role filterSQP plays inside MINOTAUR: given a (continuous)
:class:`Problem`, find a KKT point.  Objective/constraint gradients come from
the symbolic differentiation in :mod:`repro.minlp.expr` — no finite
differencing.  Because the load-balancing models in this library are convex
(all fitted coefficients nonnegative, exponents >= 1), a local solution is
global.  Every solve is one deterministic run: from the caller's warm start,
else from the box midpoint.

The engine is scipy's SLSQP, driven without ``minimize``: :func:`_slsqp`
ports scipy 1.17's reverse-communication loop around the C routine
(``scipy.optimize._slsqplib.slsqp``), and every row value and partial
derivative it asks for comes from a tree compiled once per solve
(:meth:`Expr.compiled`).  The C routine sees the bytes ``minimize`` would
hand it, so every answer is the one ``minimize`` gives, bit for bit
(``tests/minlp/test_slsqp_direct.py`` replays each run through it); at a
handful of variables its per-row closures and tree walks, not SLSQP, were
most of the time.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

import numpy as np

from repro.minlp.expr import Expr
from repro.minlp.linprog import LinearProgram, solve_lp
from repro.minlp.problem import Problem, vector_to_values
from repro.minlp.projection import Projection, project_sos1
from repro.minlp.solution import Solution, SolveStats, Status
from repro.obs.trace import span
from repro.util.timing import Timer

#: Half-width of the start box for unbounded variables.
_BIG = 1e4

#: scipy termination tolerance and iteration cap of one SLSQP run.
_TOL = 1e-9
_MAX_ITER = 300
#: Largest constraint violation a returned point may carry.
_FEAS_TOL = 1e-6


class _Gradient:
    """The gradient of one expression against the problem's variable order.

    Affine expressions keep their coefficient vector — no symbolic
    differentiation.  This matters: HSLB masters carry
    sum-over-hundreds-of-binaries rows whose term-by-term product-rule walk
    would dominate solve time.  Otherwise every variable the expression
    contains gets its partial derivative, compiled (:meth:`Expr.compiled`).
    """

    __slots__ = ("base", "partials")

    def __init__(self, expr: Expr, index: dict[str, int]) -> None:
        self.base = np.zeros(len(index))
        #: ``(column, compiled partial)`` in column order.
        self.partials: list[tuple[int, Callable]] = []
        try:
            coeffs, _ = expr.linear_coefficients()
        except Exception:
            active = expr.variables()
            self.partials = [
                (j, expr.diff(name).compiled(index))
                for name, j in index.items()
                if name in active
            ]
        else:
            for name, coeff in coeffs.items():
                self.base[index[name]] = coeff


class _SLSQPProblem:
    """``small`` in the form SLSQP's C routine reads, compiled once.

    The objective is ``sign * f`` (SLSQP minimizes).  Rows follow scipy's
    dict-constraint convention, one block of equalities ``g - lb = 0`` and one
    of inequalities ``>= 0``; a constraint contributes ``ub - g`` and then
    ``g - lb``, for each side that is finite.  Every value and derivative is
    read at ``np.clip(x, lo, hi)``: SLSQP may step an ulp or two outside the
    box, and scipy's wrappers clip there too.
    """

    def __init__(self, small: Problem, lo: np.ndarray, hi: np.ndarray) -> None:
        index = {name: j for j, name in enumerate(small.variable_names)}
        self.lo, self.hi = lo, hi
        self.sign = -1.0 if small.sense.value == "maximize" else 1.0
        self.objective = small.objective.compiled(index)
        self.gradient = _Gradient(small.objective, index)
        eq, ineq = [], []
        for con in small.constraints:
            value = con.body.compiled(index)
            grad = _Gradient(con.body, index)
            if con.is_equality:
                eq.append((value, grad, 1.0, con.lb))
                continue
            if math.isfinite(con.ub):
                ineq.append((value, grad, -1.0, con.ub))
            if math.isfinite(con.lb):
                ineq.append((value, grad, 1.0, con.lb))
        #: ``(compiled body, gradient, side, bound)``: the row is
        #: ``side * (g - bound)``, written as scipy's closures wrote it.
        self.rows = eq + ineq
        self.meq = len(eq)
        # The constant part of the Jacobian; a row of ``ub - g`` is the
        # negated gradient, its structural zeros included.
        self.jacobian = np.array(
            [side * grad.base for _, grad, side, _ in self.rows]
        ).reshape(len(self.rows), len(index))

    def point(self, x: np.ndarray) -> list:
        """The clipped iterate as ``np.float64`` scalars, what a tree reads."""
        return list(np.clip(x, self.lo, self.hi))

    def fun(self, xs: list) -> float:
        return self.sign * float(self.objective(xs))

    def grad(self, xs: list) -> np.ndarray:
        g = self.gradient.base.copy()
        for j, partial in self.gradient.partials:
            g[j] = partial(xs)
        return self.sign * g

    def constraints(self, xs: list, d: np.ndarray) -> None:
        """Row values into ``d``."""
        for i, (value, _, side, bound) in enumerate(self.rows):
            g = float(value(xs))
            d[i] = bound - g if side < 0 else g - bound

    def normals(self, xs: list, C: np.ndarray) -> None:
        """Row gradients into ``C``."""
        C[: len(self.rows)] = self.jacobian
        for i, (_, grad, side, _) in enumerate(self.rows):
            for j, partial in grad.partials:
                C[i, j] = -partial(xs) if side < 0 else partial(xs)


#: scipy's texts for SLSQP's exit modes.
_EXIT_MODES = {
    -1: "Gradient evaluation required (g & a)",
    0: "Optimization terminated successfully",
    1: "Function evaluation required (f & c)",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}


def _slsqp(prob: _SLSQPProblem, start: np.ndarray) -> tuple[np.ndarray, int, int]:
    """scipy 1.17's ``_minimize_slsqp`` driving loop on ``prob``.

    Returns ``(x, iterations, exit mode)``.  The start clipped into the box,
    the state dict, the workspace sizes, the NaN-marked infinite bounds and
    the evaluation protocol (mode 1: objective and row values; mode -1:
    their gradients) are scipy's, so every call of the C routine sees the
    bytes ``minimize`` would hand it; ``tests/minlp/test_slsqp_direct.py``
    replays each run through ``minimize``.
    """
    # Imported where SLSQP is called: min-max / max-min answers and closed-form
    # or LP subproblems never get here, so they never load scipy.
    from scipy.optimize._slsqplib import slsqp

    lo, hi = prob.lo, prob.hi
    x = np.clip(start, lo, hi)
    n = x.size
    if not n:  # ``minimize`` fails to unpack the empty bounds list
        raise ValueError("no variables to optimize")
    m = len(prob.rows)
    meq = prob.meq
    xl = np.where(np.isfinite(lo), lo, np.nan)
    xu = np.where(np.isfinite(hi), hi, np.nan)
    state = {
        "acc": _TOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * _TOL,
        "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0,
        "itermax": _MAX_ITER, "line": 0, "m": m, "meq": meq, "mode": 0, "n": n,
    }
    indices = np.zeros([max(m + 2 * n + 2, 1)], dtype=np.int32)
    buffer_size = (
        n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m + 8 * n * n
        + 35 * n + meq * meq + 28
    )
    if m == meq:
        buffer_size += 2 * n * (n + 1)
    buffer = np.zeros(max(buffer_size, 1), dtype=np.float64)
    mult = np.zeros([max(1, m + 2 * n + 2)], dtype=np.float64)
    C = np.zeros([max(1, m), n], dtype=np.float64, order="F")
    d = np.zeros([max(1, m)], dtype=np.float64)

    # scipy's order at the start: the rows (counting them), the objective
    # and its gradient, then the row gradients.
    xs = prob.point(x)
    prob.constraints(xs, d)
    fx = prob.fun(xs)
    g = prob.grad(xs)
    prob.normals(xs, C)
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            xs = prob.point(x)
            fx = prob.fun(xs)
            prob.constraints(xs, d)
        elif mode == -1:
            xs = prob.point(x)
            g = prob.grad(xs)
            prob.normals(xs, C)
        else:
            return x, state["iter"], mode


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
) -> Solution:
    """Solve the continuous problem, ignoring integrality and SOS1 sets.

    Selection variables of SOS1 sets that :func:`project_sos1` finds
    eligible are not handed to scipy; they are reconstructed for the
    returned point, so ``Solution.values`` is always complete.

    Optional warm start ``x0``; the run is scipy's SLSQP, or an LP solve
    when the problem is affine.  Returns the feasible KKT point found;
    ``Status.INFEASIBLE`` when the run ends infeasible.
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
    sol, exact = _solve_projected(free, projection, x0)
    if not exact:
        # Some row pattern is jointly tighter than its per-row intervals:
        # this relaxation is solved in the full space, and both are counted.
        spent = sol.stats
        sol, _ = _solve_projected(free, Projection(free), x0)
        sol.stats.merge(spent)
    if sol.status.is_ok:
        sol.values = {**sol.values, **pinned}
    return sol


def _solve_projected(
    problem: Problem,
    projection: Projection,
    x0: dict[str, float] | None,
) -> tuple[Solution, bool]:
    """Solve ``projection.problem``; answer for ``problem``.

    A problem that is affine throughout is an LP and is solved as one — with
    the integers fixed, every OA subproblem of the paper's models is
    ``min T  s.t.  T >= const_j`` — anything else goes to scipy.  The
    candidate is lifted back and checked against ``problem`` itself.  The
    flag is False when the lift failed: the projection was not exact, and
    neither the answer nor an INFEASIBLE can be trusted.
    """
    small = projection.problem
    lo = np.array([v.lb for v in small.variables])
    hi = np.array([v.ub for v in small.variables])
    linear = small.is_linear()
    runs = _slsqp_run(small, x0, lo, hi)
    if linear:
        runs = _lp_run(small, runs)

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
        run = next(runs)
        if run is not None:
            x, converged, message = run
            values = projection.lift(vector_to_values(small, np.clip(x, lo, hi)))
            if values is None:
                exact = False
            elif max(
                (c.violation(values) for c in problem.constraints), default=0.0
            ) <= _FEAS_TOL:
                best = Solution(
                    Status.OPTIMAL if converged else Status.FEASIBLE,
                    values=values,
                    objective=problem.objective_value(values),
                    bound=math.inf if small.sense.value == "maximize" else -math.inf,
                    message=message,
                )
        nlp_span.set_tag("lifted", best is not None and bool(projection.members))
    if best is None:
        best = Solution(Status.INFEASIBLE, message="no feasible KKT point")
    best.stats = SolveStats(nlp_solves=1, wall_time=timer.stop())
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


def _slsqp_run(
    small: Problem,
    x0: dict[str, float] | None,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Iterator[_Run]:
    """The SLSQP run from the warm/default start, built only when asked for."""
    prob = _SLSQPProblem(small, lo, hi)
    start = _initial_point(small)
    if x0 is not None:
        # Partial warm starts are fine: unnamed variables begin at the
        # default midpoint, and out-of-bounds donor values are clipped.
        start = np.array(
            [float(x0.get(n, d)) for n, d in zip(small.variable_names, start)]
        )
    try:
        x, _, mode = _slsqp(prob, start)
    except (ValueError, FloatingPointError, ZeroDivisionError, OverflowError):
        yield None
        return
    yield x, mode == 0, _EXIT_MODES[mode]
