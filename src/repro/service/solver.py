"""The pure solve at the bottom of the service: request in, outcome out.

Kept free of any cache/metrics state so the same function runs in-process
and inside the supervised pool's worker processes.  No solve draws a random
number or reads anything but its request, so the same canonical request
produces a bit-identical answer in any process and in any order — the
property that lets cached responses stand in for fresh solves.

**Which solver answers.**  Every request the tier can express is one budget
row over univariate curves with optional box bounds — the family §III-E
says needs no MINLP.  :attr:`Objective.has_direct_solver` is the one
predicate: min-max and max-min requests are answered by
:mod:`repro.core.greedy` (the exact heap, the exact level-set search;
``status="optimal"``, ``iterations == 0``), and only min-sum builds a
problem and calls :func:`repro.minlp.solve`, whose tree search a deadline
can cap.  For the direct objectives the ladder's ``greedy`` rung returns the
same allocation as the exact path and differs only in provenance
(``status="feasible"``, never cached).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.builder import AllocationModelBuilder
from repro.core.greedy import direct_allocation
from repro.core.objectives import Objective, evaluate_objective
from repro.minlp import solve
from repro.minlp.solution import Solution, Status
from repro.service.request import ComponentSpec, SolveRequest


@dataclass(frozen=True)
class SolveOutcome:
    """Everything the service stores (and ships across process boundaries)."""

    fingerprint: str
    allocation: dict[str, int]
    objective: float
    status: str
    iterations: int  # B&B nodes + NLP solves
    wall_time: float
    values: dict[str, float]  # read by the e2e harness (ROADMAP 1(iii))
    message: str = ""
    warm_started: bool = False  # always; read by the e2e harness (ROADMAP 1(iii))

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "allocation": dict(self.allocation),
            "objective": self.objective,
            "status": self.status,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "values": dict(self.values),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SolveOutcome":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            allocation={k: int(v) for k, v in payload["allocation"].items()},
            objective=float(payload["objective"]),
            status=str(payload["status"]),
            iterations=int(payload["iterations"]),
            wall_time=float(payload["wall_time"]),
            values={k: float(v) for k, v in payload["values"].items()},
            message=str(payload.get("message", "")),
        )


def _canonical(request: SolveRequest) -> list[tuple[str, ComponentSpec]]:
    """The request's components sorted by name, the order its fingerprint
    lists them in: a solve, its iteration count included, then depends on
    the fingerprint alone, not on the order the caller listed components in
    (the wire format sorts them, so a worker sees the canonical order)."""
    return sorted(request.components.items())


def build_problem(request: SolveRequest):
    """The request's MINLP, via the shared allocation-model builder."""
    objective = Objective(request.objective)
    b = AllocationModelBuilder(
        f"service-{request.fingerprint()[:8]}", request.total_nodes
    )
    for name, spec in _canonical(request):
        b.add_component(
            name, spec.model, min_nodes=spec.min_nodes, max_nodes=spec.max_nodes
        )
    b.limit_total_nodes(exact=not objective.oa_safe)
    b.set_objective(objective)
    return b.build()


def solve_request(
    request: SolveRequest,
    *,
    x0: dict[str, float] | None = None,  # read by the e2e harness (ROADMAP 1(iii))
    deadline: float | None = None,
) -> SolveOutcome:
    """Solve one request, optionally deadline-capped.

    Min-max and max-min are answered by :mod:`repro.core.greedy` — exact,
    sub-millisecond, nothing to cap, so ``deadline`` is ignored — and
    min-sum by the MINLP its convex epigraph rows make exact.

    ``deadline`` shrinks the solver's wall budget (never loosens it), so a
    per-request deadline terminates the tree search itself rather than
    abandoning a runaway subprocess.  ``x0`` seeds the tree's incumbent;
    nothing in the service passes one.
    """
    if Objective(request.objective).has_direct_solver:
        return _direct_outcome(request, Status.OPTIMAL, "")
    fingerprint = request.fingerprint()
    problem = build_problem(request)
    if x0 is not None:
        # Seed only the discrete decision variables: continuous auxiliaries
        # (epigraph T, eta) from another budget's solve would drag the root
        # relaxation toward that solve's optimum.
        discrete = {v.name for v in problem.discrete_variables()}
        x0 = {k: v for k, v in x0.items() if k in discrete} or None
    options = request.options
    if deadline is not None:
        options = options.with_budget(wall_seconds=deadline)
    sol = solve(problem, options, algorithm=request.algorithm, x0=x0)
    return _outcome(request, fingerprint, sol)


def _outcome(request: SolveRequest, fingerprint: str, sol: Solution) -> SolveOutcome:
    allocation: dict[str, int] = {}
    if sol.status.is_ok:
        allocation = {
            name: int(round(sol.values[f"n_{name}"]))
            for name in sorted(request.components)
        }
    return SolveOutcome(
        fingerprint=fingerprint,
        allocation=allocation,
        objective=float(sol.objective),
        status=sol.status.value,
        iterations=sol.stats.nodes_explored + sol.stats.nlp_solves,
        wall_time=float(sol.stats.wall_time),
        values={k: float(v) for k, v in sol.values.items()},
        message=sol.message,
    )


def _price(request: SolveRequest, allocation: dict[str, int]) -> float:
    """The request's objective at ``allocation``, from its own curves."""
    times = {
        name: float(spec.model.time(allocation[name]))
        for name, spec in _canonical(request)
    }
    return evaluate_objective(Objective(request.objective), times)


def validate_outcome(request: SolveRequest, outcome: SolveOutcome) -> str | None:
    """Check that an outcome, whatever produced it, answers its request.

    Returns a human-readable reason when it does not — wrong request, a
    component outside its node bounds, a budget over- or (for objectives
    that need it exact) under-spent, an objective that is not what the
    request's own curves give at the allocation — and ``None`` when it
    does.  A worker that died halfway through writing its result, or
    chaos-injected corruption, fails here and is retried like a crash; a
    legitimately infeasible model passes (empty allocation with a not-ok
    status is an answer, not corruption).
    """
    if outcome.fingerprint != request.fingerprint():
        return "fingerprint mismatch (answer belongs to a different request)"
    if outcome.status not in (Status.OPTIMAL.value, Status.FEASIBLE.value):
        return None
    if set(outcome.allocation) != set(request.components):
        return "allocation components do not match the request"
    budget = request.total_nodes
    total = sum(outcome.allocation.values())
    if total > budget:
        return f"allocation spends {total} nodes against a budget of {budget}"
    room = 0
    for name, spec in request.components.items():
        count = outcome.allocation[name]
        lo = max(1, spec.min_nodes)
        hi = budget if spec.max_nodes is None else min(budget, spec.max_nodes)
        if not lo <= count <= hi:
            return f"allocation grants {name!r} {count} nodes outside [{lo}, {hi}]"
        room += hi
    if not Objective(request.objective).oa_safe and total < min(budget, room):
        return (
            f"allocation spends {total} of {min(budget, room)} nodes under an "
            "objective that needs the budget spent exactly"
        )
    if not math.isfinite(outcome.objective):
        return f"objective is not finite ({outcome.objective!r})"
    priced = _price(request, outcome.allocation)
    if not math.isclose(outcome.objective, priced, rel_tol=1e-6):
        return (
            f"objective {outcome.objective!r} is not what the request's curves "
            f"give at the allocation ({priced!r})"
        )
    return None


def _direct_outcome(request: SolveRequest, status: Status, message: str) -> SolveOutcome:
    """The request answered by :func:`repro.core.greedy.direct_allocation`
    under its node bounds."""
    fingerprint = request.fingerprint()
    specs = _canonical(request)
    start = time.perf_counter()
    try:
        alloc, _ = direct_allocation(
            Objective(request.objective),
            {name: spec.model for name, spec in specs},
            request.total_nodes,
            min_nodes={name: spec.min_nodes for name, spec in specs},
            max_nodes={name: spec.max_nodes for name, spec in specs},
        )
    except ValueError as exc:
        infeasible = Solution(Status.INFEASIBLE, message=str(exc))
        return _outcome(request, fingerprint, infeasible)
    objective = _price(request, alloc)
    return SolveOutcome(
        fingerprint=fingerprint,
        allocation=alloc,
        objective=objective,
        status=status.value,
        iterations=0,
        wall_time=time.perf_counter() - start,  # allocate + price: fast, not free
        values={f"n_{name}": float(count) for name, count in alloc.items()},
        message=message,
    )


def greedy_outcome(request: SolveRequest) -> SolveOutcome:
    """Polynomial-time answer: the degradation ladder's third rung.

    :mod:`repro.core.greedy` under the request's ``min_nodes``/``max_nodes``
    bounds, priced under the request's objective.  Exact for min-max (the
    heap) and max-min (level sets); for min-sum the min-max allocation is a
    feasible approximation — either way an answer with explicit ``greedy
    fallback`` provenance instead of a refused request.  A request whose
    floors alone overspend the budget is infeasible here as it is exactly.
    """
    return _direct_outcome(
        request, Status.FEASIBLE, "greedy fallback (exact solve unavailable)"
    )
