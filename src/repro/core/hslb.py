"""The HSLB pipeline: gather -> fit -> solve -> execute (§III-F).

:class:`HSLBOptimizer` orchestrates the four steps against any
:class:`repro.core.spec.Application`.  Each step is also callable on its own
so experiments can reuse benchmark data (the paper: "the data gathering step
can be avoided altogether if reliable benchmarks are already available").

Every step degrades gracefully when an application carries a fault plan
(:mod:`repro.faults`) or when the real machine misbehaves:

* **gather** retries failed benchmark runs with exponential backoff,
  drops irrecoverable points, and raises a typed
  :class:`GatherDegradedError` (never a downstream scipy crash) when a
  component ends up unfittable;
* **fit** prunes straggler-flagged observations (when enough clean points
  remain);
* **solve** walks a degradation chain — OA, then the application's exact
  direct answer, then the greedy fallback — and records the chosen tier as
  provenance on :class:`HSLBResult`; OA starts from the direct answer when
  there is one, and the gap between the two is recorded;
* **execute** survives a mid-run node-group crash by re-solving the
  allocation on the surviving nodes and re-running (static re-plan).
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import Allocation, Application, ExecutionResult
from repro.faults.plan import BenchmarkRunError, NodeCrashError
from repro.obs import telemetry
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span, trace_event
from repro.minlp.nlpbb import solve_minlp_nlpbb  # noqa: F401  (ROADMAP 1 PR-B)
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution, Status
from repro.perf.data import BenchmarkSuite, ComponentBenchmark
from repro.perf.fitting import FIT_LOSSES, FitResult, fit_suite
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

#: Fewest observations the Table II least-squares fit can use.
FIT_MIN_POINTS = 2


def _annotate_retries(bench: ComponentBenchmark, attempt: int) -> ComponentBenchmark:
    """Stamp how many failed attempts preceded these observations."""
    if not attempt:
        return bench
    from dataclasses import replace

    return ComponentBenchmark(
        bench.component, (replace(o, retries=attempt) for o in bench)
    )


# -- gather resilience -------------------------------------------------------


#: Retries a recoverable failed benchmark run gets before its count is dropped.
GATHER_MAX_RETRIES = 3
#: Simulated wait before the first retry, doubled before each later one.
GATHER_BACKOFF_BASE = 2.0


@dataclass(frozen=True)
class GatherRecord:
    """One benchmark point's brush with failure."""

    nodes: int
    attempts: int
    outcome: str  # "recovered" | "dropped"
    kinds: tuple[str, ...]  # fault kinds seen across attempts
    backoff_seconds: float


@dataclass
class GatherReport:
    """What the resilient gather had to do to deliver its suite."""

    records: list[GatherRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def dropped_counts(self) -> tuple[int, ...]:
        return tuple(r.nodes for r in self.records if r.outcome == "dropped")

    @property
    def retried_counts(self) -> tuple[int, ...]:
        return tuple(r.nodes for r in self.records if r.outcome == "recovered")

    @property
    def total_backoff_seconds(self) -> float:
        return sum(r.backoff_seconds for r in self.records)

    @property
    def degraded(self) -> bool:
        return bool(self.records or self.warnings)

    def summary(self) -> str:
        if not self.degraded:
            return "gather: clean campaign"
        parts = []
        if self.retried_counts:
            parts.append(
                f"{len(self.retried_counts)} run(s) recovered by retry "
                f"(counts {list(self.retried_counts)}, "
                f"{self.total_backoff_seconds:.0f}s backoff)"
            )
        if self.dropped_counts:
            parts.append(f"dropped counts {list(self.dropped_counts)}")
        parts.extend(self.warnings)
        return "gather: " + "; ".join(parts)


class GatherDegradedError(RuntimeError):
    """The gather campaign lost so much data that fitting cannot proceed.

    Carries the per-component reasons and the :class:`GatherReport`, so the
    caller sees exactly which benchmark points died instead of a scipy
    shape/ValueError from deep inside the fitter.
    """

    def __init__(self, reasons: Mapping[str, str], report: GatherReport) -> None:
        self.reasons = dict(reasons)
        self.report = report
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(self.reasons.items()))
        super().__init__(
            f"gather campaign degraded below the fitter's minimum — {detail} "
            f"({report.summary()})"
        )


# -- solver degradation chain ------------------------------------------------


@dataclass(frozen=True)
class SolverAttempt:
    """One tier of the degradation chain: what was tried and how it ended."""

    tier: str  # "oa" | "direct" | "greedy"
    status: str  # "ok", or why not: "stalled" | "error" | a solution status
    reason: str
    wall_time: float = 0.0


#: Relative gap above which OA's answer beats the application's direct
#: start: the direct algorithm missed the optimum.
DIRECT_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SolverProvenance:
    """Which solver tier produced the allocation, and why.

    ``direct_gap`` is the certificate of the application's exact direct
    algorithm (:meth:`repro.core.spec.Application.direct_start`): the start's
    objective minus the MINLP tier's, relative to ``max(1, |objective|)``.
    ``None`` when the application has no direct algorithm or no MINLP tier
    answered.  Above :data:`DIRECT_GAP_TOL` the direct algorithm missed the
    optimum.
    """

    tier: str
    reason: str
    attempts: tuple[SolverAttempt, ...] = ()
    direct_gap: float | None = None

    @property
    def degraded(self) -> bool:
        """True when the first-choice tier did not produce the answer."""
        return any(a.tier != self.tier for a in self.attempts) or self.tier == "greedy"

    def summary(self) -> str:
        chain = " -> ".join(f"{a.tier}[{a.status}]" for a in self.attempts)
        line = f"solver: {self.tier} ({self.reason}); chain: {chain}"
        if self.direct_gap is not None:
            line += f"; direct gap {self.direct_gap:.1e}"
        return line


@dataclass(frozen=True)
class ExecutionRecovery:
    """A mid-run node-group crash the pipeline recovered from."""

    component: str
    lost_nodes: int
    crash_fraction: float
    original_allocation: Allocation
    wasted_seconds: float  # work thrown away by the crash (restart penalty)

    def summary(self) -> str:
        return (
            f"recovery: lost {self.lost_nodes} node(s) hosting "
            f"{self.component!r} {100 * self.crash_fraction:.0f}% into the "
            f"run; re-planned on survivors ({self.wasted_seconds:.0f}s wasted)"
        )


@dataclass
class HSLBResult:
    """Everything Table III reports for one HSLB run, plus provenance."""

    total_nodes: int
    allocation: Allocation
    predicted_times: dict[str, float]
    predicted_total: float
    fits: dict[str, FitResult]
    solution: Solution
    execution: ExecutionResult | None = None
    provenance: SolverProvenance | None = None
    gather_report: GatherReport | None = None
    recovery: ExecutionRecovery | None = None

    @property
    def solver_tier(self) -> str:
        """Which degradation-chain tier produced the allocation."""
        return self.provenance.tier if self.provenance else "oa"

    @property
    def degraded(self) -> bool:
        """True when any pipeline stage had to degrade to finish."""
        return bool(
            (self.gather_report and self.gather_report.degraded)
            or (self.provenance and self.provenance.degraded)
            or self.recovery
        )

    @property
    def actual_times(self) -> dict[str, float] | None:
        return self.execution.component_times if self.execution else None

    @property
    def actual_total(self) -> float | None:
        return self.execution.total_time if self.execution else None

    @property
    def prediction_error(self) -> float | None:
        """Relative |predicted - actual| / actual of the total time."""
        if self.execution is None or self.execution.total_time == 0:
            return None
        return abs(self.predicted_total - self.execution.total_time) / (
            self.execution.total_time
        )


class HSLBOptimizer:
    """Run the HSLB algorithm against an application adapter.

    The one modelling choice a caller makes is the fit's least-squares loss:
    ``fit_loss="linear"`` is Table II's plain least squares, ``"huber"`` /
    ``"soft_l1"`` shrug off outlier benchmark runs.  The fit is always the
    convex one (exponents >= 1, so the MINLP is certifiably convex and the
    OA solver returns the global optimum, §III-E) and the solver is always
    the degradation chain of :meth:`solve`.
    """

    def __init__(self, application: Application, *, fit_loss: str = "linear") -> None:
        if fit_loss not in FIT_LOSSES:
            raise ValueError(f"unknown fit loss {fit_loss!r}")
        self.app = application
        self.fit_loss = fit_loss
        #: Reports from the most recent gather/solve, for callers that use
        #: the per-step API instead of :meth:`run`.
        self.last_gather_report: GatherReport | None = None
        self.last_provenance: SolverProvenance | None = None

    # -- step 1: gather -----------------------------------------------------

    def gather(
        self,
        node_counts: Sequence[int],
        rng: np.random.Generator | None = None,
    ) -> BenchmarkSuite:
        """Benchmark the application at each total node count.

        At least two node counts are required (``ValueError`` otherwise);
        nothing here warns about small campaigns.  §III-C's five-point rule,
        and where to place the counts, lives in
        :func:`repro.cesm.campaign.plan_campaign`.

        Each count is one :meth:`Application.benchmark` call.  A run that
        fails (an application's fault plan, or a real machine) is retried up
        to :data:`GATHER_MAX_RETRIES` times with exponential backoff,
        irrecoverable node counts are dropped, and a
        :class:`GatherDegradedError` is raised only when some component's
        surviving observations fall below the fitter's minimum of
        :data:`FIT_MIN_POINTS`.  On a clean machine the per-count calls draw
        from ``rng`` in the order one call over every count would.
        """
        if len(node_counts) < 2:
            raise ValueError("need at least two benchmark node counts")
        rng = rng or default_rng()
        counts = sorted(set(int(n) for n in node_counts))
        with span("hslb.gather", counts=len(counts)):
            return self._gather(counts, rng)

    def _gather(self, counts: list[int], rng: np.random.Generator) -> BenchmarkSuite:
        suite = BenchmarkSuite()
        report = GatherReport()
        biggest = counts[-1]
        for count in counts:
            kinds: list[str] = []
            backoff = 0.0
            recovered = False
            for attempt in range(GATHER_MAX_RETRIES + 1):
                try:
                    part = self.app.benchmark(
                        [count],
                        rng,
                        attempt=attempt,
                        probe_extremes=(count == biggest),
                    )
                except BenchmarkRunError as exc:
                    kinds.append(exc.fault.kind)
                    if not exc.fault.recoverable:
                        # A dead point: no retry will revive it.
                        break
                    if attempt < GATHER_MAX_RETRIES:
                        backoff += GATHER_BACKOFF_BASE * 2.0**attempt
                    continue
                for bench in part.values():
                    suite.add(_annotate_retries(bench, attempt))
                recovered = True
                break
            if recovered and kinds:
                report.records.append(
                    GatherRecord(
                        nodes=count,
                        attempts=len(kinds) + 1,
                        outcome="recovered",
                        kinds=tuple(kinds),
                        backoff_seconds=backoff,
                    )
                )
            elif not recovered:
                # Exhausted retries (or hit a permanent fault): drop the point.
                report.records.append(
                    GatherRecord(
                        nodes=count,
                        attempts=len(kinds),
                        outcome="dropped",
                        kinds=tuple(kinds),
                        backoff_seconds=backoff,
                    )
                )
        for rec in report.records:
            if rec.outcome == "recovered":
                REGISTRY.counter("hslb_gather_retries_total").inc(max(rec.attempts - 1, 1))
            else:
                REGISTRY.counter("hslb_gather_dropped_total").inc()
            trace_event(
                f"gather.{rec.outcome}",
                nodes=rec.nodes,
                attempts=rec.attempts,
                kinds=",".join(rec.kinds),
            )
        # Assigned before any raise: a failed campaign must not leave the
        # previous campaign's report behind for fit() to append to.
        self.last_gather_report = report
        if len(report.dropped_counts) == len(counts):
            raise GatherDegradedError(
                {name: "no surviving benchmark runs" for name in self.app.component_names},
                report,
            )
        reasons = {}
        for name in self.app.component_names:
            n_obs = len(suite[name]) if name in suite else 0
            if n_obs < FIT_MIN_POINTS:
                reasons[name] = (
                    f"{n_obs} surviving observation(s), fitter needs "
                    f">= {FIT_MIN_POINTS}"
                )
        if reasons:
            raise GatherDegradedError(reasons, report)
        if report.dropped_counts:
            report.warnings.append(
                f"campaign thinned to {len(counts) - len(report.dropped_counts)}"
                f"/{len(counts)} node counts"
            )
        return suite

    # -- step 2: fit --------------------------------------------------------

    def fit(
        self,
        suite: BenchmarkSuite,
        rng: np.random.Generator | None = None,
    ) -> dict[str, FitResult]:
        """Fit each component's performance function (Table II).

        Straggler-flagged observations are pruned first (when enough clean
        points remain); a component left with fewer than
        :data:`FIT_MIN_POINTS` aborts the fit with ``ValueError``.
        """
        missing = set(self.app.component_names) - set(suite.components)
        if missing:
            raise ValueError(f"benchmark suite missing components: {sorted(missing)}")
        suite = suite.pruned(min_points=FIT_MIN_POINTS)
        with span("hslb.fit", components=len(suite.components)):
            return fit_suite(suite, rng=rng or default_rng(), loss=self.fit_loss)

    # -- step 3: solve ------------------------------------------------------

    def solve(
        self,
        fits: Mapping[str, FitResult] | Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> tuple[Allocation, Solution]:
        """Solve the allocation MINLP for a machine of ``total_nodes``.

        Walks the degradation chain (OA under the default ``BnBOptions``
        wall limit, then the application's exact direct answer, then the
        greedy fallback); the chosen tier and the reason for every fallback
        are stored in :attr:`last_provenance` and threaded onto
        :class:`HSLBResult` by the pipeline entry points.  When the
        application has an exact direct algorithm
        (:meth:`~repro.core.spec.Application.direct_start`), OA starts from
        that algorithm's answer for this solve's own problem and the gap
        between the two is recorded as a certificate; when OA cannot run (a
        nonconvex model) or fails, that answer is the allocation.  Nothing
        is ever carried over from an earlier solve.
        """
        self.last_provenance = None
        models = {
            name: (f.model if isinstance(f, FitResult) else f)
            for name, f in fits.items()
        }
        with span("hslb.solve", total_nodes=int(total_nodes)) as sp:
            problem = self.app.formulate(models, int(total_nodes))
            allocation, solution, provenance = self._solve_chain(
                problem, models, int(total_nodes)
            )
            sp.set_tag("tier", provenance.tier)
            sp.set_tag("status", solution.status.value)
        self.last_provenance = provenance
        return allocation, solution

    def _solve_chain(
        self,
        problem: Problem,
        models: Mapping[str, PerformanceModel],
        total_nodes: int,
    ) -> tuple[Allocation, Solution, SolverProvenance]:
        plan = getattr(self.app, "fault_plan", None)
        tick = time.perf_counter()
        start = self.app.direct_start(models, total_nodes)
        direct_wall = time.perf_counter() - tick
        attempts: list[SolverAttempt] = []
        # OA cuts are invalid on nonconvex models; the direct answer stands.
        if not self.app.requires_nonconvex_solver:
            sol, wall = None, 0.0
            if plan is not None and plan.solver_fails("oa"):
                telemetry.record_fault("solver_stall", "solve")
                status, reason = "stalled", "injected solver stall"
            else:
                tick = time.perf_counter()
                try:
                    sol = solve_minlp_oa(problem, start=start)
                except (ValueError, RuntimeError, FloatingPointError) as exc:
                    status, reason = "error", f"{type(exc).__name__}: {exc}"
                else:
                    status = sol.status.value
                    reason = sol.message or f"solver returned {status}"
                wall = time.perf_counter() - tick
            if sol is not None and sol.status.is_ok:
                allocation = self.app.allocation_from_solution(sol)
                return (
                    allocation,
                    sol,
                    SolverProvenance(
                        tier="oa",
                        reason="first-choice tier",
                        attempts=(SolverAttempt("oa", "ok", "solved", wall),),
                        direct_gap=self._certify(start, allocation, models),
                    ),
                )
            attempts.append(SolverAttempt("oa", status, reason, wall))
            # A failed OA books one degradation event, carrying its reason.
            telemetry.record_degradation(
                "oa", "greedy" if start is None else "direct", status, reason
            )
        reason = f"OA {attempts[0].status}" if attempts else "nonconvex: OA skipped"
        if start is not None:
            # The exact direct algorithm needs no solver and cannot stall.
            allocation, objective = self._direct_answer(start, models)
            attempts.append(SolverAttempt("direct", "ok", "solved", direct_wall))
            tier, status, values = "direct", Status.OPTIMAL, dict(start)
            message = "exact direct algorithm"
        else:
            # The greedy fallback never fails: it needs only the fitted
            # curves (and the app's feasibility rules).
            allocation = self.app.fallback_allocation(models, total_nodes)
            objective = float(self.app.predicted_total(models, allocation))
            tier, status = "greedy", Status.FEASIBLE
            values = {f"n_{name}": float(n) for name, n in allocation.items()}
            message = "greedy fallback (no MINLP tier or direct answer)"
        return (
            allocation,
            Solution(status, values=values, objective=objective, message=message),
            SolverProvenance(tier=tier, reason=reason, attempts=tuple(attempts)),
        )

    def _direct_answer(
        self, start: dict[str, float], models: Mapping[str, PerformanceModel]
    ) -> tuple[Allocation, float]:
        """The direct start's allocation and its predicted total."""
        allocation = self.app.allocation_from_solution(
            Solution(Status.FEASIBLE, values=start)
        )
        return allocation, float(self.app.predicted_total(models, allocation))

    def _certify(
        self,
        start: dict[str, float] | None,
        allocation: Allocation,
        models: Mapping[str, PerformanceModel],
    ) -> float | None:
        """The direct start's relative gap to the MINLP tier's allocation,
        both priced by the application (not by OA's epigraph variable, which
        may understate the allocation's price in its last digits)."""
        if start is None:
            return None
        _, direct = self._direct_answer(start, models)
        solved = float(self.app.predicted_total(models, allocation))
        gap = (direct - solved) / max(1.0, abs(solved))
        if gap > DIRECT_GAP_TOL:
            telemetry.record_direct_miss(gap)
        return gap

    # -- step 4: execute ------------------------------------------------------

    def execute(
        self,
        allocation: Allocation,
        rng: np.random.Generator | None = None,
    ) -> ExecutionResult:
        """Run the application at the chosen allocation."""
        with span("hslb.execute", nodes=sum(allocation.nodes.values())):
            return self.app.execute(allocation, rng or default_rng())

    # -- the whole pipeline --------------------------------------------------

    def run(
        self,
        benchmark_node_counts: Sequence[int],
        total_nodes: int,
        rng: np.random.Generator | None = None,
        *,
        execute: bool = True,
    ) -> HSLBResult:
        """Gather, fit, solve, and (optionally) execute in one call."""
        rng = rng or default_rng()
        with span("hslb.run", total_nodes=int(total_nodes)):
            suite = self.gather(benchmark_node_counts, rng)
            fits = self.fit(suite, rng)
            return self.run_from_fits(fits, total_nodes, rng, execute=execute)

    def run_from_fits(
        self,
        fits: Mapping[str, FitResult],
        total_nodes: int,
        rng: np.random.Generator | None = None,
        *,
        execute: bool = True,
    ) -> HSLBResult:
        """Steps 3–4 when benchmark data/fits already exist."""
        rng = rng or default_rng()
        REGISTRY.counter("hslb_pipeline_runs_total").inc()
        allocation, solution = self.solve(fits, total_nodes)
        models = {name: f.model for name, f in fits.items()}
        predicted = self.app.predicted_times(models, allocation)
        result = HSLBResult(
            total_nodes=int(total_nodes),
            allocation=allocation,
            predicted_times=predicted,
            predicted_total=float(self.app.predicted_total(models, allocation)),
            fits=dict(fits),
            solution=solution,
            provenance=self.last_provenance,
            gather_report=self.last_gather_report,
        )
        if execute:
            try:
                result.execution = self.execute(allocation, rng)
            except NodeCrashError as exc:
                self._recover_execution(result, models, exc, rng)
        return result

    def _recover_execution(
        self,
        result: HSLBResult,
        models: Mapping[str, PerformanceModel],
        crash: NodeCrashError,
        rng: np.random.Generator | None,
    ) -> None:
        """Static re-plan after a mid-run node-group loss.

        The crashed group's nodes are gone; re-solve the allocation MINLP on
        the surviving machine (same fitted models — the curves did not
        change, only the budget did), re-run, and charge the work the crash
        threw away as a restart penalty on the recovered run's total.
        """
        surviving = result.total_nodes - crash.lost_nodes
        wasted = crash.fraction * float(result.predicted_total)
        telemetry.record_fault("node_crash", "execute")
        REGISTRY.counter("hslb_execution_recoveries_total").inc()
        trace_event(
            "execute.recovering",
            component=crash.component,
            lost_nodes=crash.lost_nodes,
            surviving=surviving,
        )
        recovery = ExecutionRecovery(
            component=crash.component,
            lost_nodes=crash.lost_nodes,
            crash_fraction=crash.fraction,
            original_allocation=result.allocation,
            wasted_seconds=wasted,
        )
        problem = self.app.formulate(models, surviving)
        allocation, solution, provenance = self._solve_chain(
            problem, models, surviving
        )
        execution = self.execute(allocation, rng)
        execution.total_time += wasted
        execution.metadata["recovered_from_crash"] = recovery.summary()
        result.allocation = allocation
        result.predicted_times = self.app.predicted_times(models, allocation)
        result.predicted_total = (
            float(self.app.predicted_total(models, allocation)) + wasted
        )
        result.solution = solution
        result.provenance = provenance
        result.recovery = recovery
        result.execution = execution
