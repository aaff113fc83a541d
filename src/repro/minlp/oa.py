"""Outer-approximation MINLP solvers.

Implements the two classic OA schemes for convex MINLPs:

* :func:`solve_minlp_oa` — the **LP/NLP-based branch-and-bound** of Quesada &
  Grossmann, the algorithm §III-E of the paper describes MINOTAUR running: a
  single branch-and-bound tree over a mixed-integer *linear* master; whenever
  a node's LP solution is discrete-feasible, an NLP subproblem is solved with
  the integers fixed, linearization cuts (paper eq. (4)) are added globally,
  and the node is re-solved.  On the paper's models that subproblem is an
  LP once the integers are fixed; :class:`_FixedSplit` finds so once per
  solve and then answers every subproblem as one array LP on one HiGHS
  instance (:class:`_FixedLP`) instead of building and reducing a
  :class:`Problem` per round.

* :func:`solve_minlp_oa_multitree` — the original Duran–Grossmann /
  Fletcher–Leyffer **multi-tree** alternation between a MILP master and NLP
  subproblems, kept as an independent cross-check of the single-tree code.

Both require the nonlinear constraints to be of convex ``g(x) <= ub`` form —
exactly what the paper's positivity constraints on the fitted coefficients
guarantee (§III-E: "The positivity of the coefficients a_j, b_j, d_j implies
that the nonlinear functions are convex, which ensures that MINOTAUR finds a
global solution").  A nonlinear constraint with a finite *lower* bound would
make the linearized master a non-relaxation, so it is rejected loudly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

import numpy as np

from repro.minlp.bnb import BnBOptions, BranchAndBound
from repro.minlp.cutpool import OACutPool
from repro.minlp.expr import Constant, Expr, VarRef
from repro.minlp.linprog import LinearProgram, _HighsEngine
from repro.obs import telemetry
from repro.obs.trace import span, trace_event
from repro.minlp.milp import solve_milp
from repro.minlp.nlp import solve_nlp
from repro.minlp.problem import Constraint, Problem, Sense
from repro.minlp.solution import Solution, SolveStats, Status
from repro.util.timing import Timer

_OBJ_VAR = "_oa_eta"

_FEAS_TOL = 1e-6  # violation above which a nonlinear row is not satisfied


def _check_convex_form(problem: Problem) -> None:
    """Reject nonlinear constraints OA cannot relax as a single convex side.

    Single-sided constraints are fine either way round: ``g(x) >= lb`` is
    normalized to ``-g(x) <= -lb`` by the cut pool, and — as in every
    practical OA solver — the *user asserts* the normalized body is convex
    (the paper's positivity constraints guarantee it for HSLB models).  A
    nonlinear equality or range constraint can never be convex on both sides,
    so those are rejected outright.
    """
    for con in problem.nonlinear_constraints():
        if math.isfinite(con.lb) and math.isfinite(con.ub):
            raise ValueError(
                f"constraint {con.name!r} is a nonlinear equality/range "
                "constraint; outer approximation requires single-sided convex "
                "constraints. Use solve_minlp_nlpbb for this model."
            )


def _epigraph_form(problem: Problem) -> tuple[Problem, bool]:
    """Return an equivalent problem with a linear objective.

    A nonlinear objective ``min f(x)`` becomes ``min eta  s.t. f(x)-eta <= 0``
    (for maximize, ``max eta  s.t. eta - f(x) <= 0``; validity then requires
    concave f, which the convex-form check will enforce via the sign).
    """
    if problem.objective.is_linear():
        return problem, False
    out = Problem(f"{problem.name}:epigraph")
    for v in problem.variables:
        out.add_variable(v.name, v.lb, v.ub, v.domain)
    out.add_variable(_OBJ_VAR)
    for c in problem.constraints:
        out.add_constraint(c.name, c.body, c.lb, c.ub)
    eta = VarRef(_OBJ_VAR)
    if problem.sense is Sense.MINIMIZE:
        out.add_constraint("_oa_epigraph", problem.objective - eta, ub=0.0)
    else:
        out.add_constraint("_oa_epigraph", eta - problem.objective, ub=0.0)
    for s in problem.sos1_sets:
        out.add_sos1(s.name, s.members, s.weights)
    out.set_objective(eta, problem.sense)
    return out, True


def _linear_master(work: Problem) -> Problem:
    """Master skeleton: every variable, only the linear constraints."""
    master = Problem(f"{work.name}:master")
    for v in work.variables:
        master.add_variable(v.name, v.lb, v.ub, v.domain)
    for c in work.constraints:
        if c.is_linear():
            master.add_constraint(c.name, c.body, c.lb, c.ub)
    for s in work.sos1_sets:
        master.add_sos1(s.name, s.members, s.weights)
    master.set_objective(work.objective, work.sense)
    return master


class _Master:
    """The mixed-integer *linear* master of one solve and the cuts it holds.

    Every nonlinear row enters only through tangents served by ``pool`` —
    the one cut builder single- and multi-tree OA share.
    """

    def __init__(
        self,
        work: Problem,
        nonlin: tuple[Constraint, ...],
        pool: OACutPool,
        stats: SolveStats,
    ) -> None:
        self.problem = _linear_master(work)
        self._discrete = {v.name: v for v in work.discrete_variables()}
        self.nonlin = nonlin
        self.pool = pool
        self.stats = stats
        self.installed: set[str] = set()

    def install(self, cut: tuple[str, Expr, float, float]) -> None:
        name, body, lb, ub = cut
        if name not in self.installed:
            self.installed.add(name)
            self.problem.add_constraint(name, body, lb, ub)
            self.stats.cuts_added += 1

    def add_cuts_at(self, point: dict[str, float]) -> None:
        for con in self.nonlin:
            self.install(self.pool.cut_for(con, point))

    def seed(self, root: dict[str, float]) -> int:
        """Install the starting cuts; returns how many seeds were added.

        The tangents at ``root`` come first, then — the seeds — at ``root``
        with the discrete variables each row is nonlinear in
        moved to their floor and to their ceiling (clipped to the bounds: an
        ``a/n`` row never sees ``n = 0``).  A row nonlinear in several of them gets the
        all-floor and the all-ceiling point, two cuts, not 2^k.

        The paper's rows ``T >= a/n + b*n^c + d`` are nonlinear in one integer
        only, so a tangent at an integer ``n`` is the row itself there: before
        the first LP the master agrees with the MINLP on the two integers
        bracketing every component's relaxed optimum, which is where the
        answer almost always is.  Any tangent of a convex row is valid, so
        bounds, branching, lazy cuts and exactness do not depend on this.
        ``root`` is the root relaxation's optimum, or a start's subproblem
        optimum, whose integers make every seed a repeat of its tangent.
        """
        self.add_cuts_at(root)
        before = self.stats.cuts_added
        for con in self.nonlin:
            moving = [
                self._discrete[n]
                for n in self.pool.nonlinear_variables(con)
                if n in self._discrete
            ]
            if not moving:
                continue
            for snap in (math.floor, math.ceil):
                point = dict(root)
                for v in moving:
                    point[v.name] = min(max(float(snap(root[v.name])), v.lb), v.ub)
                self.install(self.pool.cut_for(con, point))
        return self.stats.cuts_added - before


def _integer_assignment(work: Problem, values: dict[str, float]) -> dict[str, float]:
    """The discrete variables of a discrete-feasible point, on exact integers."""
    return {v.name: float(round(values[v.name])) for v in work.discrete_variables()}


class _FixedSplit:
    """``work``'s rows split once per solve for its fixed-integer subproblems.

    A row in discrete variables only becomes a constant once the integers
    are fixed — the wide sweet-spot rows and the node budgets — so it is
    checked at the integer point, compiled, with
    :meth:`Problem.reduce_fixed`'s 1e-6 rule, instead of being copied and
    substituted in every round.  Every other row goes through
    ``with_bounds`` and ``reduce_fixed`` as the whole of ``work`` did, so
    :meth:`reduce` answers ``work.with_bounds(...).reduce_fixed()``: the same
    rows, fixed values and status.

    When those other rows and the objective are affine in the continuous
    columns for every fixing, :attr:`lp` holds them as arrays
    (:class:`_FixedLP`), and a subproblem takes the symbolic path only when
    HiGHS finds its LP neither optimal nor infeasible; else :attr:`lp` is
    ``None``.
    """

    def __init__(self, work: Problem) -> None:
        self.work = work
        discrete = {v.name for v in work.discrete_variables()}
        self.checks: list[tuple[Callable, float, float]] = []
        self.free = Problem(work.name)
        for v in work.variables:
            self.free.add_variable(v.name, v.lb, v.ub, v.domain)
        for c in work.constraints:
            if c.body.variables() <= discrete:
                self.checks.append((c.body.compiled(), c.lb, c.ub))
            else:
                self.free.add_constraint(c.name, c.body, c.lb, c.ub)
        for s in work.sos1_sets:
            self.free.add_sos1(s.name, s.members, s.weights)
        self.free.set_objective(work.objective, work.sense)
        self.lp = _FixedLP.of(work, self.free, self.checks)

    def reduce(self, values: dict[str, float]) -> tuple[Problem, dict[str, float]] | None:
        """``work`` with ``values``' integers fixed and substituted out, or
        ``None`` when the fixing violates a row."""
        assignment = _integer_assignment(self.work, values)
        # Bounds first: an integer outside its box raises there, as before.
        fixed = self.free.with_bounds({name: (x, x) for name, x in assignment.items()})
        if _violates(self.checks, assignment):
            return None
        return fixed.reduce_fixed()


def _violates(checks: list[tuple[Callable, float, float]], point: dict[str, float]) -> bool:
    """Whether ``point`` breaks a compiled row of ``checks`` by more than
    :meth:`Problem.reduce_fixed`'s 1e-6."""
    for body, lb, ub in checks:
        value = float(body(point))
        if value < lb - 1e-6 or value > ub + 1e-6:
            return True
    return False


class _FixedLP:
    """The fixed-integer subproblem of an affine split, as one array LP.

    Built when every partial derivative of the split's ``free`` rows and of
    the objective with respect to a continuous column is a constant: then
    fixing the integers leaves ``A x`` plus a shift per row, ``A`` the same
    for every fixing.  A term-by-term test would miss rows such as CESM's
    ``-1·(T_icelnd + a/n_atm + …)``, which are affine in ``T_icelnd`` only
    as a whole.  The columns are the continuous variables
    :meth:`Problem.reduce_fixed` leaves free, in ``work``'s order; a row with
    none of them is checked at the fixing, like the split's rows in
    integers only.  Each row's shift is its compiled body at (the integers,
    pinned columns at their value, free columns at 0), so the LP is the one
    ``LinearProgram.from_problem`` builds from the reduced problem, without
    building that problem.  One HiGHS instance (:class:`_HighsEngine`)
    answers every subproblem of the solve; ``A`` never changes, so between
    fixings only the row bounds move on it.
    """

    def __init__(
        self,
        work: Problem,
        columns: list[str],
        pinned: dict[str, float],
        rows: list[tuple[Callable, float, float, dict[int, float]]],
        checks: list[tuple[Callable, float, float]],
    ) -> None:
        self.work = work
        self.columns = columns
        self.pinned = pinned
        self.checks = checks
        self.bodies = [body for body, _, _, _ in rows]
        self.lb = np.array([lb for _, lb, _, _ in rows])
        self.ub = np.array([ub for _, _, ub, _ in rows])
        self.A = np.zeros((len(rows), len(columns)))
        for i, (_, _, _, coeffs) in enumerate(rows):
            for j, a in coeffs.items():
                self.A[i, j] = a
        sign = -1.0 if work.sense is Sense.MAXIMIZE else 1.0
        coeffs, _ = work.objective.linear_coefficients()
        self.c = np.array([sign * coeffs.get(name, 0.0) for name in columns])
        self.var_lb = np.array([work.variable(n).lb for n in columns])
        self.var_ub = np.array([work.variable(n).ub for n in columns])
        self.bound = math.inf if work.sense is Sense.MAXIMIZE else -math.inf
        self.engine = _HighsEngine()

    @classmethod
    def of(
        cls, work: Problem, free: Problem, checks: list[tuple[Callable, float, float]]
    ) -> "_FixedLP | None":
        """The array form of a split of ``work`` into ``free`` rows and
        integer-only ``checks``, or ``None`` when a free row (or the
        objective) is not affine in the continuous columns, a continuous
        variable is in an SOS1 set, or there is no free column."""
        if not work.objective.is_linear():
            return None
        pinned = {
            v.name: 0.5 * (v.lb + v.ub)
            for v in work.variables
            if not v.is_discrete and math.isfinite(v.lb) and v.ub - v.lb <= 1e-9
        }
        columns = [
            v.name
            for v in work.variables
            if not v.is_discrete and v.name not in pinned
        ]
        index = {name: j for j, name in enumerate(columns)}
        if not columns or any(m in index for s in work.sos1_sets for m in s.members):
            return None
        rows, checks = [], list(checks)
        for con in free.constraints:
            body = con.body
            coeffs = {}
            for name in body.variables() & index.keys():
                partial = body.diff(name)
                if not isinstance(partial, Constant):
                    return None
                coeffs[index[name]] = partial.value
            if coeffs:
                rows.append((body.compiled(), con.lb, con.ub, coeffs))
            else:  # in integers and pinned columns only
                checks.append((body.compiled(), con.lb, con.ub))
        return cls(work, columns, pinned, rows, checks)

    def solve(self, values: dict[str, float]) -> Solution | None:
        """The subproblem at ``values``' integers: what the symbolic path
        answers, on this solve's HiGHS instance; ``None`` when HiGHS finds
        the LP neither optimal nor infeasible (the symbolic path decides)."""
        work = self.work
        assignment = _integer_assignment(work, values)
        for v in work.discrete_variables():
            if not v.lb <= assignment[v.name] <= v.ub:  # as ``with_bounds``
                raise ValueError(f"variable {v.name}: fixing outside its bounds")
        point = {**assignment, **self.pinned, **dict.fromkeys(self.columns, 0.0)}
        if _violates(self.checks, point):
            return Solution(Status.INFEASIBLE, message="fixing violates a constraint")
        shift = np.array([float(body(point)) for body in self.bodies])
        res = self.engine.solve(
            LinearProgram(
                c=self.c,
                A=self.A,
                row_lb=self.lb - shift,
                row_ub=self.ub - shift,
                var_lb=self.var_lb,
                var_ub=self.var_ub,
                names=tuple(self.columns),
            )
        )
        stats = SolveStats(nlp_solves=1)
        if res.status is Status.OPTIMAL:
            x = np.clip(res.x, self.var_lb, self.var_ub)
            free = {name: float(v) for name, v in zip(self.columns, x)}
            fixed = {
                v.name: assignment[v.name] if v.is_discrete else self.pinned[v.name]
                for v in work.variables
                if v.name not in free
            }
            merged = {**free, **fixed}
            rows = (float(body(merged)) for body in self.bodies)
            violation = max(
                (max(0.0, lb - g, g - ub) for g, lb, ub in zip(rows, self.lb, self.ub)),
                default=0.0,
            )
            if violation <= _FEAS_TOL:
                return Solution(
                    Status.OPTIMAL,
                    values=merged,
                    objective=work.objective_value(merged),
                    bound=self.bound,
                    message="LP optimal",
                    stats=stats,
                )
        elif res.status is not Status.INFEASIBLE:
            return None  # unbounded, or HiGHS failed
        return Solution(Status.INFEASIBLE, message="no feasible KKT point", stats=stats)


def _solve_fixed_subproblem(split: _FixedSplit, values: dict[str, float]) -> Solution:
    """NLP subproblem at a fixed integer assignment, on the reduced space.

    Single- and multi-tree OA both come here, with the split their solve
    built once.  An affine split answers it as one array LP
    (:class:`_FixedLP`); any other goes the symbolic way.
    """
    if split.lp is not None:
        sol = split.lp.solve(values)
        if sol is not None:
            return sol
    return _solve_symbolic(split, values)


def _solve_symbolic(split: _FixedSplit, values: dict[str, float]) -> Solution:
    """The subproblem through :meth:`_FixedSplit.reduce` and :func:`solve_nlp`.

    Substituting the fixed integers out before calling the NLP solver keeps
    the subproblem tiny (for HSLB layouts: the epigraph variables only) —
    the full-space version spends most of its time differentiating constant
    rows and moving pinned variables.
    """
    reduced = split.reduce(values)
    if reduced is None:
        return Solution(Status.INFEASIBLE, message="fixing violates a constraint")
    small, fixed_values = reduced
    work = split.work
    if small.num_variables == 0:
        merged = dict(fixed_values)
        if work.max_violation(merged) > _FEAS_TOL:
            return Solution(Status.INFEASIBLE, message="fully fixed, infeasible")
        return Solution(
            Status.OPTIMAL, values=merged, objective=work.objective_value(merged)
        )
    x0 = {n: values[n] for n in small.variable_names if n in values}
    sub = solve_nlp(small, x0=x0 if len(x0) == small.num_variables else None)
    if sub.status.is_ok:
        sub.values = {**sub.values, **fixed_values}
    return sub


def _solve_start(split: _FixedSplit, start: Mapping[str, float]) -> Solution:
    """The fixed-integer subproblem at ``start``; a start outside the
    variable bounds is an infeasible fixing like any other."""
    discrete = split.work.discrete_variables()
    missing = sorted(v.name for v in discrete if v.name not in start)
    if missing:
        raise ValueError(f"start has no value for discrete variables {missing}")
    if any(not v.lb <= round(start[v.name]) <= v.ub for v in discrete):
        return Solution(Status.INFEASIBLE, message="start outside the bounds")
    return _solve_fixed_subproblem(split, dict(start))


def solve_minlp_oa(
    problem: Problem,
    options: BnBOptions | None = None,
    *,
    start: Mapping[str, float] | None = None,
) -> Solution:
    """Solve a convex MINLP with single-tree LP/NLP branch-and-bound.

    The wall budget is the one ``options`` carries.

    Without ``start`` the solve is cold: the root relaxation NLP seeds the
    master.  ``start`` is a value for every discrete variable (an exact
    direct algorithm's answer, say).  Its fixed-integer subproblem is solved
    first; the master is seeded with the tangents at that point instead of
    the root relaxation's, and the tree starts with it as its incumbent, so
    a start at the optimum leaves the tree only the proof.  A start whose
    fixing violates a row or a bound is dropped (the span's ``start`` tag
    reads ``rejected``) and the solve runs cold.  The answer is optimal
    either way; only which of several co-optimal points comes back can
    differ.  A problem with no nonlinear row goes to the MILP solver, which
    takes no start.

    Every cut comes from a per-solve :class:`OACutPool`, which dedups
    repeated linearization points within this tree; nothing outlives the
    solve, so the same problem and start always build the same master.
    """
    with span("minlp.oa", problem=problem.name) as oa_span:
        sol = _solve_minlp_oa_impl(problem, options, start, oa_span)
        telemetry.record_solve("oa", sol.stats, sol.status.value)
    return sol


def _solve_minlp_oa_impl(
    problem: Problem,
    options: BnBOptions | None,
    start: Mapping[str, float] | None,
    oa_span,
) -> Solution:
    opts = options or BnBOptions()
    work, has_eta = _epigraph_form(problem)
    _check_convex_form(work)
    nonlin = work.nonlinear_constraints()
    if not nonlin:
        sol = solve_milp(work, opts)
        return _strip_eta(sol, problem, has_eta)

    stats = SolveStats()
    timer = Timer().start()
    pool = OACutPool()
    split = _FixedSplit(work)

    incumbent = None
    if start is not None:
        first = _solve_start(split, start)
        stats.nlp_solves += first.stats.nlp_solves
        oa_span.set_tag("start", "accepted" if first.status.is_ok else "rejected")
        if first.status.is_ok:
            incumbent = _candidate(problem, first.values, has_eta)
    if incumbent is not None:
        seed_point = first.values
    else:
        # Root relaxation: continuous NLP over the full model.  Its solution
        # seeds the initial linearizations so the first master is meaningful.
        root = solve_nlp(work)
        stats.merge(root.stats)
        oa_span.set_tag("root_nlp_ms", root.stats.wall_time * 1e3)
        if root.status is Status.INFEASIBLE:
            # The continuous relaxation is infeasible => the MINLP is
            # infeasible (for convex models).
            stats.wall_time = timer.stop()
            return Solution(
                Status.INFEASIBLE, stats=stats, message="NLP relaxation infeasible"
            )
        seed_point = root.values

    master = _Master(work, nonlin, pool, stats)
    seeded = master.seed(seed_point)
    trace_event("oa.cut_pool.master", installed=len(master.installed))

    lazy_rounds = 0

    def lazy(master_prob: Problem, values: dict[str, float]):
        nonlocal lazy_rounds
        lazy_rounds += 1
        cuts: list[tuple[str, Expr, float, float]] = []
        candidate = None

        sub = _solve_fixed_subproblem(split, values)
        stats.nlp_solves += sub.stats.nlp_solves
        if sub.status.is_ok:
            candidate = _candidate(problem, sub.values, has_eta)
            for con in nonlin:
                cuts.append(pool.cut_for(con, sub.values))

        # Guarantee progress: if the master point itself violates any true
        # nonlinear constraint, linearizing there cuts it off (convexity:
        # the cut equals g at the expansion point).  Without this, a failed
        # NLP subproblem could let an infeasible point be accepted.  The LP
        # reports integers to ~1e-9; expanding on the exact integers moves
        # the cut by a second-order nothing and makes it the subproblem's
        # cut above (a pool hit) instead of its near-copy.
        violated = [c for c in nonlin if pool.violation(c, values) > _FEAS_TOL]
        if violated:
            at = {**values, **_integer_assignment(work, values)}
            cuts.extend(pool.cut_for(con, at) for con in violated)
        trace_event(
            "oa.iteration",
            cuts=len(cuts),
            subproblem=sub.status.value,
            incumbent=candidate is not None,
        )
        return cuts, candidate

    # The tree gets what the root relaxation left of the wall budget.  The
    # root is where a process first calls scipy (a one-off load of its HiGHS
    # and SLSQP modules, tens of ms), so a deadline shorter than that ends as
    # TIME_LIMIT instead of being answered, late, by a tree that started its
    # own clock afterwards.
    engine = BranchAndBound(
        master.problem,
        "lp",
        opts.with_budget(opts.time_limit - timer.peek()),
        lazy_cuts=lazy,
        known_cuts=master.installed,
        incumbent=incumbent,
    )
    sol = engine.solve()
    oa_span.set_tag("polish_snapped", engine.polish_snapped)
    # Short of seeds or long on lazy rounds: what a slow solve looks like.
    oa_span.set_tag("cuts_seeded", seeded)
    oa_span.set_tag("cut_pool_hits", pool.stats.hits)
    oa_span.set_tag("lazy_rounds", lazy_rounds)
    stats.merge(sol.stats)
    stats.wall_time = timer.stop()
    sol.stats = stats
    return _strip_eta(sol, problem, has_eta)


def _candidate(
    problem: Problem, values: dict[str, float], has_eta: bool
) -> tuple[dict[str, float], float]:
    """A subproblem optimum as a tree incumbent: ``(values, objective)``."""
    out = dict(values)
    objective = problem.objective_value(out)
    if has_eta:
        out[_OBJ_VAR] = objective
    return out, objective


def _strip_eta(sol: Solution, original: Problem, has_eta: bool) -> Solution:
    if sol.status.is_ok:
        values = {k: v for k, v in sol.values.items() if k != _OBJ_VAR}
        sol.values = values
        sol.objective = original.objective_value(values)
    return sol


#: Master/subproblem alternations before multi-tree OA gives up.
_MULTITREE_MAX_ROUNDS = 50


def solve_minlp_oa_multitree(
    problem: Problem,
    options: BnBOptions | None = None,
) -> Solution:
    """Solve a convex MINLP by alternating MILP masters and NLP subproblems.

    Kept as an algorithmic cross-check for :func:`solve_minlp_oa`; both must
    agree on convex instances (a test enforces this).  Successive masters in
    one run share one :class:`OACutPool`, so a round revisiting a
    linearization point re-installs nothing.
    """
    opts = options or BnBOptions()
    work, has_eta = _epigraph_form(problem)
    _check_convex_form(work)
    nonlin = work.nonlinear_constraints()
    if not nonlin:
        return _strip_eta(solve_milp(work, opts), problem, has_eta)

    sign = -1.0 if problem.sense is Sense.MAXIMIZE else 1.0
    stats = SolveStats()
    timer = Timer().start()
    pool = OACutPool()

    root = solve_nlp(work)
    stats.merge(root.stats)
    if root.status is Status.INFEASIBLE:
        stats.wall_time = timer.stop()
        return Solution(Status.INFEASIBLE, stats=stats, message="NLP relaxation infeasible")

    master = _Master(work, nonlin, pool, stats)
    master.seed(root.values)
    split = _FixedSplit(work)

    best: Solution | None = None
    best_signed = math.inf
    lower_signed = -math.inf
    status = Status.ITERATION_LIMIT
    evaluated: set[tuple] = set()

    def _gap(incumbent: float) -> float:
        # Never tighter than branch-and-bound's own closing test.
        return max(1e-6, opts.gap_abs, opts.gap_rel * abs(incumbent))

    for _ in range(_MULTITREE_MAX_ROUNDS):
        msol = solve_milp(master.problem, opts)
        stats.lp_solves += msol.stats.lp_solves
        stats.nodes_explored += msol.stats.nodes_explored
        if msol.status is Status.INFEASIBLE:
            status = Status.OPTIMAL if best is not None else Status.INFEASIBLE
            break
        if not msol.status.is_ok:
            status = msol.status
            break
        lower_signed = max(lower_signed, sign * msol.objective)
        if best is not None and lower_signed >= best_signed - _gap(best_signed):
            status = Status.OPTIMAL
            break

        assignment = tuple(sorted(_integer_assignment(work, msol.values).items()))
        cuts_before = stats.cuts_added
        sub = _solve_fixed_subproblem(split, msol.values)
        stats.merge(sub.stats)
        if sub.status.is_ok:
            obj = problem.objective_value(sub.values)
            if sign * obj < best_signed:
                best_signed = sign * obj
                values = dict(sub.values)
                if has_eta:
                    values[_OBJ_VAR] = obj
                best = Solution(Status.FEASIBLE, values=values, objective=obj)
                stats.incumbent_updates += 1
            master.add_cuts_at(sub.values)
        else:
            # Infeasible integer assignment: cut off the master point.
            master.add_cuts_at({**msol.values, **_integer_assignment(work, msol.values)})
        # The new cuts are the integer no-good for convex models.  A master
        # that re-proposes an assignment already evaluated, with every cut at
        # its subproblem optimum already installed, is tight there: its bound
        # is that assignment's true cost to within the cut tolerance, and no
        # later round can differ — the incumbent is optimal.
        if assignment in evaluated and stats.cuts_added == cuts_before:
            status = Status.OPTIMAL
            break
        evaluated.add(assignment)
        if best is not None and lower_signed >= best_signed - _gap(best_signed):
            status = Status.OPTIMAL
            break

    stats.wall_time = timer.stop()
    if best is None:
        return Solution(
            status if status is Status.INFEASIBLE else Status.ERROR,
            stats=stats,
            message="multi-tree OA found no feasible point",
        )
    best.status = Status.OPTIMAL if status is Status.OPTIMAL else Status.FEASIBLE
    best.bound = sign * max(
        lower_signed, -math.inf
    ) if math.isfinite(lower_signed) else best.objective
    best.stats = stats
    return _strip_eta(best, problem, has_eta)
