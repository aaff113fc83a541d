"""Extended cutting plane (ECP) solver for convex MINLPs.

The third classic algorithm family next to OA and NLP-BB (Westerlund &
Pettersson): **no NLP subproblems at all** — iterate a MILP master, and
whenever its solution violates a nonlinear constraint, linearize the
violated constraints *at that point* and re-solve.  Convexity makes every
such cut valid, and the master values converge to the MINLP optimum from
below.

Slower per instance than LP/NLP-BB on problems where NLP solves are cheap,
but structurally simpler and a useful cross-check: the test suite requires
OA, NLP-BB, ECP, and brute force to agree on convex models.
"""

from __future__ import annotations

import math

from repro.minlp.bnb import BnBOptions
from repro.minlp.cutpool import OACutPool
from repro.minlp.milp import solve_milp
from repro.minlp.oa import _check_convex_form, _epigraph_form, _Master, _strip_eta
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution, SolveStats, Status
from repro.util.timing import Timer


def solve_minlp_ecp(
    problem: Problem,
    options: BnBOptions | None = None,
    *,
    max_rounds: int = 200,
) -> Solution:
    """Solve a convex MINLP by the extended cutting plane method."""
    opts = options or BnBOptions()
    work, has_eta = _epigraph_form(problem)
    _check_convex_form(work)
    nonlin = work.nonlinear_constraints()
    if not nonlin:
        return _strip_eta(solve_milp(work, opts), problem, has_eta)

    stats = SolveStats()
    timer = Timer().start()
    pool = OACutPool()
    pool.begin_solve()
    master = _Master(work, nonlin, pool, stats)
    status = Status.ITERATION_LIMIT
    best: Solution | None = None

    # Seed cuts at the variable-box midpoint so the first master is bounded
    # (an epigraph variable has no lower bound until a cut supplies one).
    seed_point = {}
    for v in work.variables:
        lo = v.lb if math.isfinite(v.lb) else -1e4
        hi = v.ub if math.isfinite(v.ub) else 1e4
        seed_point[v.name] = 0.5 * (lo + hi)
    master.add_cuts_at(seed_point)

    for _ in range(max_rounds):
        msol = solve_milp(master.problem, opts)
        stats.lp_solves += msol.stats.lp_solves
        stats.nodes_explored += msol.stats.nodes_explored
        if msol.status is Status.INFEASIBLE:
            stats.wall_time = timer.stop()
            return Solution(
                Status.INFEASIBLE, stats=stats, message="ECP master infeasible"
            )
        if not msol.status.is_ok:
            status = msol.status
            break

        violated = [c for c in nonlin if c.violation(msol.values) > 1e-6]
        if not violated:
            # Master point satisfies the true constraints: since the master
            # is a relaxation, this point is MINLP-optimal.
            best = msol
            status = Status.OPTIMAL
            break
        for con in violated:
            master.install(pool.cut_for(con, msol.values))

    stats.wall_time = timer.stop()
    if best is None:
        return Solution(status, stats=stats, message="ECP round limit reached")
    best.status = Status.OPTIMAL
    best.objective = work.objective_value(best.values)
    best.bound = best.objective
    best.stats = stats
    return _strip_eta(best, problem, has_eta)
