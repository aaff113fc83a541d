"""Generic branch-and-bound engine.

This is the tree search at the heart of the toolkit (paper §III-E).  It is
parameterized by a *relaxation solver* so the same engine drives:

* **MILP** — LP relaxations (:mod:`repro.minlp.milp`);
* **NLP-based B&B** — NLP relaxations (:mod:`repro.minlp.nlpbb`);
* **LP/NLP-based B&B** (Quesada–Grossmann) — LP relaxations of an
  outer-approximation master, plus *lazy cuts*: when a node produces a
  discrete-feasible point that violates the nonlinear constraints, the
  callback returns linearization cuts that are added globally and the node
  is re-solved instead of accepted (:mod:`repro.minlp.oa`).

Two branching mechanisms are supported:

* classic variable dichotomy on the most fractional integer variable;
* **SOS1 branching**: a violated special-ordered set is split around its
  weighted midpoint and each child forbids one half of the set.  The paper
  reports this is what made the atmosphere sweet-spot sets tractable
  ("improved the runtime of the MINLP solver by two orders of magnitude").
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.minlp.expr import Expr
from repro.minlp.problem import Problem, SOS1, Sense
from repro.minlp.solution import Solution, SolveStats, Status
from repro.obs.trace import get_tracer
from repro.util.timing import Timer

_TRACER = get_tracer()

#: A relaxation solver maps a bounded problem to a Solution.
RelaxSolver = Callable[[Problem], Solution]

#: A lazy-cut callback receives the master problem and a discrete-feasible
#: point; it returns (cuts, candidate) where cuts is a list of
#: ``(name, body, lb, ub)`` tuples to add globally and candidate is an
#: optional incumbent ``(values, objective)`` discovered along the way
#: (e.g. from the NLP subproblem solved at that integer assignment).
LazyCutCallback = Callable[
    [Problem, dict[str, float]],
    tuple[list[tuple[str, Expr, float, float]], tuple[dict[str, float], float] | None],
]


@dataclass
class _Node:
    bounds: dict[str, tuple[float, float]]
    sos_allowed: dict[str, tuple[int, ...]]


@dataclass
class BnBOptions:
    """Knobs for the tree search."""

    int_tol: float = 1e-6
    gap_abs: float = 1e-7
    gap_rel: float = 1e-7
    node_limit: int = 100_000
    time_limit: float = 120.0
    sos_branching: bool = True  # False: branch SOS members as plain binaries

    def with_budget(self, wall_seconds: float) -> "BnBOptions":
        """A copy capped to a remaining wall budget (never loosened).

        OA hands its tree whatever is left of the solve's budget after the
        root; the limit only ever shrinks so a caller's own tighter setting
        survives.
        """
        from dataclasses import replace

        return replace(
            self, time_limit=max(0.0, min(self.time_limit, float(wall_seconds)))
        )


class BranchAndBound:
    """Best-first branch-and-bound over a :class:`Problem`.

    The engine minimizes internally; a maximize sense is handled by sign
    flips at the comparison points.
    """

    def __init__(
        self,
        problem: Problem,
        relax_solver: RelaxSolver | str,
        options: BnBOptions | None = None,
        lazy_cuts: LazyCutCallback | None = None,
        known_cuts: set[str] | None = None,
        incumbent: tuple[dict[str, float], float] | None = None,
    ) -> None:
        self.problem = problem
        # A feasible ``(values, objective)`` known before the search (OA's
        # start): the tree prunes against it from the root on, and returns
        # it unless it finds something better by more than ``gap_abs``.
        self.incumbent = incumbent
        self.opts = options or BnBOptions()
        self.lazy_cuts = lazy_cuts
        self._sign = -1.0 if problem.sense is Sense.MAXIMIZE else 1.0
        self._cuts: list[tuple[str, Expr, float, float]] = []
        # Cut names already present in ``problem`` itself (OA's seeded
        # tangents, installed in the master before the tree starts): a lazy
        # callback re-proposing one is a duplicate, and the node fathoms
        # instead of re-queuing.
        self._cut_names: set[str] = set(known_cuts or ())
        self._incremental = None
        if relax_solver == "lp":
            # Fast path: cache the LP matrix once; nodes only tweak bounds
            # and cuts only append rows (no symbolic rebuilds).
            from repro.minlp.linprog import IncrementalLPSolver

            self._incremental = IncrementalLPSolver(problem)
            self.relax = None
        elif callable(relax_solver):
            self.relax = relax_solver
        else:
            raise TypeError(f"relax_solver must be callable or 'lp', got {relax_solver!r}")

    @property
    def polish_snapped(self) -> int:
        """Variables the LP polish snapped (a span tag)."""
        return self._incremental.polish_snapped if self._incremental else 0

    # -- helpers -----------------------------------------------------------

    def _node_problem(self, node: _Node) -> Problem:
        prob = self.problem.with_bounds(node.bounds)
        for name, body, lb, ub in self._cuts:
            prob.add_constraint(name, body, lb, ub)
        return prob

    def _fractional_vars(self, values: dict[str, float]) -> list[tuple[str, float]]:
        out = []
        for var in self.problem.discrete_variables():
            x = values[var.name]
            frac = abs(x - round(x))
            if frac > self.opts.int_tol:
                out.append((var.name, frac))
        return out

    def _violated_sos(
        self, values: dict[str, float], node: _Node
    ) -> tuple[SOS1, tuple[int, ...]] | None:
        for sos in self.problem.sos1_sets:
            allowed = node.sos_allowed.get(sos.name, tuple(range(len(sos.members))))
            nonzero = [
                k
                for k in allowed
                if abs(values[sos.members[k]]) > self.opts.int_tol
            ]
            if len(nonzero) > 1:
                return sos, allowed
        return None

    def _branch_sos(
        self, node: _Node, sos: SOS1, allowed: tuple[int, ...], values: dict[str, float]
    ) -> list[_Node]:
        # Weighted-average split point (classic SOS1 branching).
        weights = [sos.weights[k] for k in allowed]
        mags = [abs(values[sos.members[k]]) for k in allowed]
        total = sum(mags)
        wstar = sum(w * m for w, m in zip(weights, mags)) / total
        left = tuple(k for k in allowed if sos.weights[k] <= wstar)
        right = tuple(k for k in allowed if sos.weights[k] > wstar)
        if not left or not right:  # degenerate: force a 1/rest split
            left, right = allowed[:1], allowed[1:]
        children = []
        for keep in (left, right):
            bounds = dict(node.bounds)
            for k in allowed:
                if k not in keep:
                    name = sos.members[k]
                    var = self.problem.variable(name)
                    if var.lb > 0.0 or var.ub < 0.0:
                        break  # fixing to 0 impossible -> child infeasible
                    bounds[name] = (0.0, 0.0)
            else:
                sos_allowed = dict(node.sos_allowed)
                sos_allowed[sos.name] = keep
                children.append(_Node(bounds, sos_allowed))
        return children

    def _branch_int(self, node: _Node, name: str, value: float) -> list[_Node]:
        var = self.problem.variable(name)
        lo, hi = node.bounds.get(name, (var.lb, var.ub))
        children = []
        for low, high in ((lo, float(math.floor(value))), (float(math.ceil(value)), hi)):
            if low <= high:  # the down child, then the up child, when non-empty
                b = dict(node.bounds)
                b[name] = (low, high)
                children.append(_Node(b, dict(node.sos_allowed)))
        return children

    def add_global_cut(self, name: str, body: Expr, lb: float, ub: float) -> bool:
        """Install a cut valid for the whole tree; returns False on duplicate."""
        if name in self._cut_names:
            return False
        self._cut_names.add(name)
        self._cuts.append((name, body, lb, ub))
        if self._incremental is not None:
            self._incremental.add_row(body, lb, ub)
        return True

    # -- main loop -----------------------------------------------------------

    def solve(self) -> Solution:
        """Run the search and return the best solution with a proven bound."""
        opts = self.opts
        stats = SolveStats()
        timer = Timer().start()
        sign = self._sign

        incumbent: dict[str, float] | None = None
        incumbent_obj = math.inf  # in minimize-sign space
        if self.incumbent is not None:
            incumbent = dict(self.incumbent[0])
            incumbent_obj = sign * self.incumbent[1]

        counter = itertools.count()
        root = _Node({}, {})
        heap: list[tuple[float, int, _Node]] = [(-math.inf, next(counter), root)]
        status = Status.OPTIMAL

        while heap:
            if stats.nodes_explored >= opts.node_limit:
                status = Status.NODE_LIMIT
                break
            if timer.peek() >= opts.time_limit:
                status = Status.TIME_LIMIT
                break

            node_bound, _, node = heapq.heappop(heap)
            if node_bound >= incumbent_obj - opts.gap_abs:
                stats.nodes_pruned += 1
                continue

            stats.nodes_explored += 1
            if self._incremental is not None:
                rel = self._incremental.solve(node.bounds)
            else:
                rel = self.relax(self._node_problem(node))
            stats.lp_solves += rel.stats.lp_solves
            stats.nlp_solves += rel.stats.nlp_solves

            if rel.status is Status.INFEASIBLE:
                stats.nodes_pruned += 1
                continue
            if rel.status is Status.UNBOUNDED:
                # An unbounded relaxation at the root means the MINLP itself
                # is unbounded or the model is missing bounds; surface it.
                stats.wall_time = timer.stop()
                return Solution(
                    Status.UNBOUNDED, stats=stats, message="unbounded relaxation"
                )
            if not rel.status.is_ok:
                stats.nodes_pruned += 1
                continue

            bound = sign * rel.objective
            if bound >= incumbent_obj - opts.gap_abs:
                stats.nodes_pruned += 1
                continue

            values = rel.values
            fracs = self._fractional_vars(values)
            if opts.sos_branching:
                sos_viol = self._violated_sos(values, node)
            else:
                # Binary-branching mode (the slow alternative the paper
                # compares against): prefer variable dichotomy and fall back
                # to SOS branching only when every discrete variable is
                # integral yet a set is still violated (possible only for
                # models without an explicit sum-to-one row).
                sos_viol = None if fracs else self._violated_sos(values, node)

            if not fracs and sos_viol is None:
                # Discrete-feasible point.
                if self.lazy_cuts is not None:
                    cuts, candidate = self.lazy_cuts(self.problem, values)
                    if candidate is not None:
                        cand_values, cand_obj = candidate
                        cand_signed = sign * cand_obj
                        if cand_signed < incumbent_obj - opts.gap_abs:
                            incumbent, incumbent_obj = dict(cand_values), cand_signed
                            stats.incumbent_updates += 1
                            if _TRACER.enabled:
                                _TRACER.event(
                                    "bnb.incumbent",
                                    objective=cand_obj,
                                    source="nlp",
                                    node=stats.nodes_explored,
                                )
                    added = 0
                    for cut in cuts:
                        if self.add_global_cut(*cut):
                            added += 1
                    stats.cuts_added += added
                    if added:
                        # Re-queue this node: its relaxation changed.
                        heapq.heappush(heap, (bound, next(counter), node))
                        continue
                obj_signed = sign * rel.objective
                if obj_signed < incumbent_obj - opts.gap_abs:
                    incumbent, incumbent_obj = dict(values), obj_signed
                    stats.incumbent_updates += 1
                    if _TRACER.enabled:
                        _TRACER.event(
                            "bnb.incumbent",
                            objective=rel.objective,
                            source="relaxation",
                            node=stats.nodes_explored,
                        )
                continue  # leaf: fathomed by integrality

            if sos_viol is not None:
                children = self._branch_sos(node, *sos_viol, values)
            else:
                name = max(fracs, key=lambda nf: min(nf[1], 1.0 - nf[1]))[0]
                children = self._branch_int(node, name, values[name])
            for child in children:
                heapq.heappush(heap, (bound, next(counter), child))

        stats.wall_time = timer.stop()

        best_bound = min((b for b, _, _ in heap), default=incumbent_obj)
        if incumbent is None:
            if status is Status.OPTIMAL:
                return Solution(Status.INFEASIBLE, stats=stats, message="tree exhausted")
            return Solution(status, stats=stats, message="no incumbent found")
        gap = incumbent_obj - best_bound
        if status is Status.OPTIMAL or gap <= max(
            opts.gap_abs, opts.gap_rel * abs(incumbent_obj)
        ):
            final = Status.OPTIMAL
            best_bound = incumbent_obj
        else:
            final = Status.FEASIBLE
        return Solution(
            final,
            values=incumbent,
            objective=sign * incumbent_obj,
            bound=sign * best_bound,
            stats=stats,
        )
