"""The pure solve at the bottom of the service: request in, outcome out.

Kept free of any cache/metrics state so the same function runs in-process
and inside the supervised pool's worker processes.  Determinism
rule: the solve RNG is seeded from the request fingerprint, so the same
canonical request produces a bit-identical answer in any process — the
property that lets cached responses stand in for fresh solves.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.builder import AllocationModelBuilder
from repro.core.objectives import Objective
from repro.minlp import solve
from repro.minlp.solution import Solution, Status
from repro.service.request import SolveRequest
from repro.util.rng import default_rng


@dataclass(frozen=True)
class SolveOutcome:
    """Everything the service stores (and ships across process boundaries)."""

    fingerprint: str
    allocation: dict[str, int]
    objective: float
    status: str
    iterations: int  # B&B nodes + NLP solves: the warm-start speedup metric
    wall_time: float
    values: dict[str, float]  # full variable values: the warm-start donor
    warm_started: bool
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "allocation": dict(self.allocation),
            "objective": self.objective,
            "status": self.status,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "values": dict(self.values),
            "warm_started": self.warm_started,
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
            warm_started=bool(payload["warm_started"]),
            message=str(payload.get("message", "")),
        )


def build_problem(request: SolveRequest):
    """The request's MINLP, via the shared allocation-model builder."""
    objective = Objective(request.objective)
    b = AllocationModelBuilder(
        f"service-{request.fingerprint()[:8]}", request.total_nodes
    )
    for name, spec in request.components.items():
        b.add_component(
            name, spec.model, min_nodes=spec.min_nodes, max_nodes=spec.max_nodes
        )
    # Same budget convention as the FMO scheduler: MAX_MIN needs the exact
    # budget or "raising the floor" degenerates into starving everything.
    b.limit_total_nodes(exact=objective is Objective.MAX_MIN)
    b.set_objective(objective)
    return b.build()


def solve_request(
    request: SolveRequest,
    *,
    x0: dict[str, float] | None = None,
    deadline: float | None = None,
    cut_pool=None,
) -> SolveOutcome:
    """Solve one request, optionally warm-started and deadline-capped.

    ``deadline`` shrinks the solver's wall budget (never loosens it), so a
    per-request deadline terminates the tree search itself rather than
    abandoning a runaway subprocess.

    ``cut_pool`` optionally carries a per-family
    :class:`repro.minlp.OACutPool` so OA re-solves on the same model family
    reactivate earlier linearization cuts.  CAUTION: a shared pool makes
    the solve depend on pool history, which breaks the bit-identical-replay
    guarantee — only the service's opt-in ``share_cuts`` mode passes one.
    """
    fingerprint = request.fingerprint()
    problem = build_problem(request)
    if x0 is not None:
        # Seed only the discrete decision variables: a donor's continuous
        # auxiliaries (epigraph T, eta) belong to *its* budget and would
        # drag the root relaxation toward the donor's optimum.
        discrete = {v.name for v in problem.discrete_variables()}
        x0 = {k: v for k, v in x0.items() if k in discrete} or None
    options = request.options
    if deadline is not None:
        options = options.with_budget(wall_seconds=deadline)
    # MAX_MIN epigraph rows (t <= convex) are nonconvex; OA cuts would be
    # invalid there, so route it to NLP-based branch-and-bound.
    algorithm = request.algorithm
    if algorithm == "auto" and Objective(request.objective) is Objective.MAX_MIN:
        algorithm = "nlpbb"
    rng = default_rng(int(fingerprint[:8], 16))
    sol = solve(
        problem, options, algorithm=algorithm, rng=rng, x0=x0, cut_pool=cut_pool
    )
    return _outcome(request, fingerprint, sol, warm_started=x0 is not None)


def _outcome(
    request: SolveRequest,
    fingerprint: str,
    sol: Solution,
    *,
    warm_started: bool,
) -> SolveOutcome:
    allocation: dict[str, int] = {}
    if sol.status.is_ok:
        allocation = {
            name: int(round(sol.values[f"n_{name}"])) for name in request.components
        }
    return SolveOutcome(
        fingerprint=fingerprint,
        allocation=allocation,
        objective=float(sol.objective),
        status=sol.status.value,
        iterations=sol.stats.nodes_explored + sol.stats.nlp_solves,
        wall_time=float(sol.stats.wall_time),
        values={k: float(v) for k, v in sol.values.items()},
        warm_started=warm_started,
        message=sol.message,
    )


def validate_outcome(request: SolveRequest, outcome: SolveOutcome) -> str | None:
    """Sanity-check a (possibly worker-produced) outcome against its request.

    Returns a human-readable reason when the outcome is *corrupt* — the
    allocation does not answer the request it claims to — and ``None`` when
    it is structurally sound.  A worker that died halfway through writing
    its result, or chaos-injected corruption, fails here and is retried
    like a crash; a legitimately infeasible model passes (empty allocation
    with a not-ok status is an answer, not corruption).
    """
    if outcome.fingerprint != request.fingerprint():
        return "fingerprint mismatch (answer belongs to a different request)"
    if outcome.status not in (Status.OPTIMAL.value, Status.FEASIBLE.value):
        return None
    if set(outcome.allocation) != set(request.components):
        return "allocation components do not match the request"
    total = sum(outcome.allocation.values())
    if total > request.total_nodes:
        return (
            f"allocation spends {total} nodes against a budget of "
            f"{request.total_nodes}"
        )
    if any(count < 1 for count in outcome.allocation.values()):
        return "allocation grants a component less than one node"
    if not math.isfinite(outcome.objective):
        return f"objective is not finite ({outcome.objective!r})"
    return None


def greedy_outcome(request: SolveRequest) -> SolveOutcome:
    """Polynomial-time approximate answer: the degradation ladder's third rung.

    A bounded marginal greedy in the spirit of
    :func:`repro.core.greedy.greedy_minmax_allocation`, generalized to
    honor per-component ``min_nodes``/``max_nodes`` bounds: every component
    starts at its floor, then the remaining budget goes one node at a time
    to the currently slowest component, never pushing a component past its
    curve minimum while another can still improve.  Exact for the
    single-constraint min-max family; a feasible approximation otherwise —
    either way an answer with explicit ``greedy fallback`` provenance
    instead of a refused request.
    """
    fingerprint = request.fingerprint()
    total = request.total_nodes
    models = {name: spec.model for name, spec in request.components.items()}
    hard_cap = {
        name: min(total, spec.max_nodes if spec.max_nodes is not None else total)
        for name, spec in request.components.items()
    }
    soft_cap = {
        name: min(
            hard_cap[name], max(1, int(models[name].optimal_nodes(n_max=total)))
        )
        for name in models
    }
    alloc = {
        name: min(max(1, spec.min_nodes), hard_cap[name])
        for name, spec in request.components.items()
    }
    budget = total - sum(alloc.values())
    # Phase 1: grant to the slowest component still below its curve minimum.
    heap = [(-float(models[n].time(alloc[n])), n) for n in models]
    heapq.heapify(heap)
    while budget > 0 and heap:
        _, name = heapq.heappop(heap)
        if alloc[name] >= soft_cap[name]:
            continue
        alloc[name] += 1
        budget -= 1
        heapq.heappush(heap, (-float(models[name].time(alloc[name])), name))
    # Phase 2 (exact-budget objectives): everyone is at their sweet spot but
    # nodes remain — spread the remainder round-robin up to the hard caps.
    if budget > 0 and Objective(request.objective) is Objective.MAX_MIN:
        for name in sorted(alloc):
            while budget > 0 and alloc[name] < hard_cap[name]:
                alloc[name] += 1
                budget -= 1
    times = {name: float(models[name].time(alloc[name])) for name in alloc}
    objective = Objective(request.objective)
    if objective is Objective.MIN_SUM:
        value = sum(times.values())
    elif objective is Objective.MAX_MIN:
        value = min(times.values())
    else:
        value = max(times.values())
    return SolveOutcome(
        fingerprint=fingerprint,
        allocation=dict(alloc),
        objective=float(value),
        status=Status.FEASIBLE.value,
        iterations=0,
        wall_time=0.0,
        values={f"n_{name}": float(count) for name, count in alloc.items()},
        warm_started=False,
        message="greedy fallback (exact solve unavailable)",
    )
