"""The pure solve at the bottom of the service: request in, outcome out.

Kept free of any cache/metrics state.  No solve draws a random number or
reads anything but its request, so the same canonical request produces a
bit-identical answer in any process and in any order — the property that
lets cached responses stand in for fresh solves.

**Which solver answers.**  Every request the tier can express is one budget
row over univariate curves with optional box bounds — the family §III-E
says needs no MINLP — so every request, whatever its objective, is answered
exactly by :func:`repro.core.greedy.direct_allocation` (the heap for
min-max, level sets for max-min, marginal gain for min-sum;
``status="optimal"``, ``iterations == 0``).  :func:`build_problem` still
builds the request's MINLP: it is the independent reference the tests
solve by OA.  The ladder's ``greedy`` rung returns the same allocation as
the exact path and differs only in provenance (``status="feasible"``,
never cached).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.builder import AllocationModelBuilder
from repro.core.greedy import direct_allocation
from repro.core.objectives import Objective, evaluate_objective
from repro.minlp.solution import Status
from repro.service.request import ComponentSpec, SolveRequest


@dataclass(frozen=True)
class SolveOutcome:
    """Everything the service stores for one answered request."""

    fingerprint: str
    allocation: dict[str, int]
    objective: float
    status: str
    iterations: int  # tree nodes explored: 0, no served request builds one
    wall_time: float
    values: dict[str, float]  # read by the e2e harness (ROADMAP 1(iii))
    message: str = ""
    warm_started: bool = False  # always; read by the e2e harness (ROADMAP 1(iii))

    def to_dict(self) -> dict:  # read by the e2e harness (ROADMAP 1(iii))
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


def _canonical(request: SolveRequest) -> list[tuple[str, ComponentSpec]]:
    """The request's components sorted by name, the order its fingerprint
    lists them in: a solve then depends on the fingerprint alone, not on
    the order the caller listed components in."""
    return sorted(request.components.items())


def build_problem(request: SolveRequest):
    """The request's MINLP, via the shared allocation-model builder: what
    OA solves to certify the direct answer (tests, the e2e harness)."""
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
) -> SolveOutcome:
    """Answer one request exactly by :mod:`repro.core.greedy` under its
    objective and node bounds; ``x0`` is ignored."""
    del x0
    return _direct_outcome(request, Status.OPTIMAL, "")


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
    does.  Chaos-injected corruption fails here and is retried like a
    crash; a legitimately infeasible request passes (empty allocation with a not-ok
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
    except ValueError as exc:  # the floors alone overspend the budget
        return SolveOutcome(
            fingerprint=request.fingerprint(),
            allocation={},
            objective=math.nan,
            status=Status.INFEASIBLE.value,
            iterations=0,
            wall_time=0.0,
            values={},
            message=str(exc),
        )
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        allocation=alloc,
        objective=_price(request, alloc),
        status=status.value,
        iterations=0,
        wall_time=time.perf_counter() - start,  # allocate + price: fast, not free
        values={f"n_{name}": float(count) for name, count in alloc.items()},
        message=message,
    )


def greedy_outcome(request: SolveRequest) -> SolveOutcome:
    """Polynomial-time answer: the degradation ladder's third rung.

    The exact path's own allocation under explicit ``greedy fallback``
    provenance (``status="feasible"``), so the ladder answers instead of
    refusing.  A request whose floors alone overspend the budget is
    infeasible here as it is exactly.
    """
    return _direct_outcome(
        request, Status.FEASIBLE, "greedy fallback (exact solve unavailable)"
    )
