"""The allocation service: cached solves behind one entry point.

:meth:`AllocationService.submit` is the only place a solve is dispatched,
validated, booked, retried and laddered — every shard of the serving tier,
and through it ``hslb serve``, ``hslb batch`` and ``run_requests``, end here.

Request lifecycle::

    submit(request)
      -> canonicalize + fingerprint            (request.py)
      -> cache lookup                          (cache.py; hit: done, ~µs)
      -> circuit breaker check                 (breaker.py; open: degrade)
      -> solve — on the calling thread, unless
         the request builds a MINLP *and* a
         pool is installed: then on a
         supervised worker — retried on system
         failures (a worker re-dispatch after
         a deterministic backoff)              (solver.py, supervisor.py,
                                                retry.py)
      -> result validation (corruption check)  (solver.py)
      -> cache insert
      -> metrics

A solve sees its request and nothing else: no starting point and no OA cuts
carry over from earlier solves.  The balancer is static — fit once, solve
once — and min-sum solves chained that way measured slower than cold ones.

**A solve crosses a process boundary only when it builds a MINLP.**  A
service keeps two solve seams and one predicate,
:attr:`~repro.core.objectives.Objective.has_direct_solver`, picks between
them.  Min-max and max-min requests are answered by ``core.greedy`` on the
calling thread whether or not a pool is installed — in a serving tier, the
event loop itself: the sub-millisecond heap does not pay for a hop to a
thread, let alone to a worker.  What builds a MINLP — min-sum today — ships
to a slot of a :class:`~repro.service.supervisor.SupervisedWorkerPool` as
wire dicts: milliseconds of GIL-bound tree search are what a second core is
for.  There is no size rule (DESIGN.md, "Worker modes", records the
measured hop and the heap's time against the node budget).

Either way a worker that dies or hangs comes back as the same
:class:`WorkerCrashError` / :class:`WorkerHangError` in-process chaos
raises — caught and retried by the same loop, counted once: by the pool
that saw the worker die for an attempt that shipped, by the loop for an
attempt that ran here (under a :class:`~repro.faults.chaos.ChaosPlan` the
in-process seam raises its faults as those typed errors; the physical ones
keep hitting what ships).  Worker deaths are *system* failures, so they are
re-dispatched once even with no :class:`ResiliencePolicy` installed.  Only
a re-dispatch to a worker backs off first (the wait covers the replacement
process); an attempt that runs here retries at once, so nothing on this
path sleeps on the caller's thread.

Cached answers are bit-identical to fresh solves: no solve draws a random
number or reads state another solve left behind, so replaying the request
in any process, in any order, yields the same allocation and objective the
cache stored.

**The degradation ladder.**  With a :class:`ResiliencePolicy` installed, a
request that cannot get an exact answer — worker crashes/hangs exhausted
their retries, the solver blew its deadline, the family's circuit breaker
is open — walks down explicit rungs instead of failing:

1. **stale cache** — a TTL-expired entry within ``max_stale`` seconds of
   age, served with ``source="stale"`` and its age attached;
2. **greedy approximate** — the polynomial-time bounded greedy (the same
   final rung as the PR 1 oa -> nlpbb -> greedy chain), ``source="greedy"``;
3. **typed rejection** — :class:`ServiceRejectedError`, never a silent drop.

Every rung books its own ``service_requests_total{outcome}`` series
(``stale`` / ``greedy`` / ``rejected``) and a span tag, so degradation is
always visible in the metrics scrape.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.objectives import Objective
from repro.minlp.solution import Status
from repro.obs.trace import span
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.cache import SolutionCache
from repro.service.errors import (
    RestartBudgetError,
    ServiceRejectedError,
    ServiceTimeoutError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse
from repro.service.retry import RetryPolicy
from repro.service.solver import (
    SolveOutcome,
    greedy_outcome,
    solve_request,
    validate_outcome,
)
from repro.service.supervisor import SupervisedWorkerPool

#: Without a policy a worker death still earns one re-dispatch.
_SYSTEM_RETRY = RetryPolicy(max_attempts=2)
_MIN_ATTEMPT_BUDGET = 1e-3  # seconds of deadline below which no new attempt starts


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every knob of the resilient request path, in one value object.

    ``retry`` / ``breaker``
        Re-dispatch and circuit-breaking policies (their own modules).
    ``max_stale``
        Oldest entry age (seconds since insert) the stale rung may serve;
        ``None`` serves any entry still physically cached.
    ``allow_stale`` / ``allow_greedy``
        Switch individual rungs off (a rejected request is still typed).
    ``restart_budget``
        Replacements a supervised worker may spend on *consecutive*
        failures before its slot retires.
    ``hang_timeout``
        Harvest timeout (seconds) for worker dispatches when no per-request
        deadline implies one; the backstop that turns a silent worker hang
        into a typed, retryable failure.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    max_stale: float | None = None
    allow_stale: bool = True
    allow_greedy: bool = True
    restart_budget: int = 3
    hang_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be >= 0 (or None)")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        if self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")


class AllocationService:
    """High-throughput query engine over the HSLB optimizer."""

    def __init__(
        self,
        *,
        cache_capacity: int = 256,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        resilience: ResiliencePolicy | None = None,
        chaos=None,  # ChaosPlan | None; annotation-free to avoid an import cycle
        sleeper: Callable[[float], None] = time.sleep,
        pool: SupervisedWorkerPool | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.cache: SolutionCache[SolveOutcome] = SolutionCache(
            capacity=cache_capacity, ttl=ttl, clock=clock
        )
        # The owner's scope: a tier hands each shard a view that forwards to
        # its own; a standalone service books straight to the process registry.
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.resilience = resilience
        self.chaos = chaos
        self.sleeper = sleeper
        self.breaker = (
            CircuitBreaker(resilience.breaker, clock=clock) if resilience else None
        )
        # The two solve seams.  ``_solve`` runs ``solve_request`` on the
        # calling thread (under a chaos plan, with its faults raised as typed
        # errors); ``_solve_on_worker`` ships it to a supervised worker (the
        # plan ships with the request and faults happen physically).  With a
        # pool installed ``_submit`` sends what builds a MINLP to the worker
        # and everything else here; without one, everything runs here.
        self.pool = pool
        if pool is not None:
            from repro.faults.chaos import chaos_pool_solve

            pool.metrics = self.metrics
            if resilience is not None:
                pool.restart_budget = resilience.restart_budget
            self._worker_call = (
                chaos_pool_solve, chaos.to_dict() if chaos is not None else None
            )
        if chaos is not None:
            from repro.faults.chaos import chaotic_solve

            self._solve = chaotic_solve(chaos, solve_request)
        else:
            self._solve = lambda request, *, deadline=None, attempt=0: (
                solve_request(request, deadline=deadline)
            )

    def _solve_on_worker(
        self, request: SolveRequest, *, deadline=None, attempt=0
    ) -> SolveOutcome:
        """Ship one solve to a pool slot and block on its answer."""
        entry, chaos = self._worker_call
        dispatch = self.pool.submit(
            entry, request.to_dict(), deadline, chaos, attempt
        )
        # The solver's own wall budget enforces the deadline; the grace only
        # covers process scheduling — and turns a hung worker into a typed,
        # retryable failure instead of a stuck shard.
        hang = self.resilience.hang_timeout if self.resilience else None
        grace = hang
        if deadline is not None:
            grace = 2.0 * deadline + 5.0
            if hang is not None:
                grace = min(grace, deadline + hang)
        return SolveOutcome.from_dict(self.pool.result(dispatch, timeout=grace))

    # -- the request path --------------------------------------------------

    def submit(
        self, request: SolveRequest, *, deadline: float | None = None
    ) -> ServiceResponse:
        """Answer one request from cache, a solve, or the ladder.

        Raises :class:`ServiceTimeoutError` when the per-request ``deadline``
        expires with no usable incumbent and no resilience policy is
        installed (or the worker error itself, when the one free
        re-dispatch also died), and :class:`ServiceRejectedError` when the
        degradation ladder runs out of rungs; solver failures that are the
        *model's* fault (infeasible, error) come back as a response with
        ``ok=False`` instead — the caller's retry policy differs.
        """
        with span("service.submit") as sp:
            response = self._submit(request, deadline=deadline, sp=sp)
            sp.set_tag("cached", response.cached)
            sp.set_tag("status", response.status)
            sp.set_tag("source", response.source)
        return response

    def _submit(
        self, request: SolveRequest, *, deadline: float | None, sp
    ) -> ServiceResponse:
        start = time.perf_counter()
        fingerprint = request.fingerprint()
        cached = self.cache.get(fingerprint)
        if cached is not None:
            latency = time.perf_counter() - start
            self.metrics.record_hit(latency)
            return ServiceResponse.from_outcome(
                cached, cached=True, latency=latency
            )
        policy = self.resilience
        family = request.family_key()
        if self.breaker is not None and not self.breaker.allow(family):
            self.metrics.count("breaker_blocks")
            return self.fallback(
                request,
                fingerprint,
                reason=f"circuit breaker open for family {family[:12]}",
                start=start,
            )
        # The one routing decision: only a request that builds a MINLP is
        # worth the hop to a worker process (module docstring).
        ships = (
            self.pool is not None
            and not Objective(request.objective).has_direct_solver
        )
        solve = self._solve_on_worker if ships else self._solve
        sp.set_tag("ran", "worker" if ships else "shard")
        retry = policy.retry if policy else _SYSTEM_RETRY
        last_reason = "no solve attempt ran"
        worker_error = None
        for attempt in range(retry.max_attempts):
            if attempt:
                self.metrics.count("retries")
                if ships:
                    # The backoff waits out a replaced worker process; an
                    # attempt run here has nothing to wait for, and may be
                    # running on the tier's event loop.
                    self.sleeper(retry.backoff(fingerprint, attempt))
            budget = deadline
            if deadline is not None:
                budget = deadline - (time.perf_counter() - start)
                if policy and budget <= _MIN_ATTEMPT_BUDGET:
                    last_reason = "deadline exhausted before another attempt"
                    break
            try:
                outcome = solve(request, deadline=budget, attempt=attempt)
            except (WorkerCrashError, WorkerHangError) as exc:
                if not ships:
                    # In-process chaos: no pool saw this death, so book it
                    # here (a supervised worker's is booked by its pool).
                    hang = isinstance(exc, WorkerHangError)
                    self.metrics.count("worker_hangs" if hang else "worker_crashes")
                last_reason = str(exc)
                worker_error = exc
                continue
            except RestartBudgetError as exc:
                # Every slot retired: no attempt can run, so none is owed.
                last_reason = str(exc)
                worker_error = exc
                break
            worker_error = None
            if policy is not None:
                corrupt = validate_outcome(request, outcome)
                if corrupt is not None:
                    self.metrics.count("corruptions")
                    last_reason = f"corrupt result: {corrupt}"
                    continue
            latency = time.perf_counter() - start
            ok = outcome.status in (Status.OPTIMAL.value, Status.FEASIBLE.value)
            self.metrics.record_solve(latency, iterations=outcome.iterations, ok=ok)
            if outcome.status == Status.TIME_LIMIT.value:
                # Deterministic under a fixed budget, so spend the remaining
                # deadline on the ladder, not on an identical re-run.
                self.metrics.count("timeouts")
                last_reason = "solver exhausted its wall budget"
                break
            # A finished solve — optimal/feasible, or a *model*-fault
            # terminal status (infeasible, error) that no retry changes.
            if self.breaker is not None:
                # Any *completed* solve is a system success — even an
                # infeasible model proves the workers and solver ran.
                self.breaker.record_success(family)
            if ok:
                self.admit(request, outcome)
            return ServiceResponse.from_outcome(outcome, cached=False, latency=latency)
        if self.breaker is not None:
            self.breaker.record_failure(family)
        if policy is None:
            if worker_error is not None:
                raise worker_error
            raise ServiceTimeoutError(
                fingerprint=fingerprint,
                deadline=(
                    deadline if deadline is not None else request.options.time_limit
                ),
                elapsed=time.perf_counter() - start,
            )
        return self.fallback(request, fingerprint, reason=last_reason, start=start)

    # -- the degradation ladder --------------------------------------------

    def fallback(
        self,
        request: SolveRequest,
        fingerprint: str,
        *,
        reason: str,
        start: float | None = None,
    ) -> ServiceResponse:
        """Walk the ladder below exact: stale cache -> greedy -> rejection.

        Raises :class:`ServiceRejectedError` from the bottom rung; every
        other return carries explicit ``source`` provenance and metrics.
        """
        policy = self.resilience
        if policy is None:
            raise ServiceRejectedError(fingerprint=fingerprint, reason=reason)
        start = time.perf_counter() if start is None else start
        with span("service.fallback") as sp:
            sp.set_tag("reason", reason)
            response = self.degrade(
                request,
                fingerprint,
                start,
                stale=policy.allow_stale,
                max_stale=policy.max_stale,
                greedy=policy.allow_greedy,
            )
            sp.set_tag("source", response.source if response else "rejected")
            if response is not None:
                return response
            self.metrics.record_rejection(time.perf_counter() - start)
            raise ServiceRejectedError(fingerprint=fingerprint, reason=reason)

    def degrade(
        self,
        request: SolveRequest,
        fingerprint: str,
        start: float,
        *,
        stale: bool = True,
        max_stale: float | None = None,
        greedy: bool = True,
    ) -> ServiceResponse | None:
        """Answer without a solve: a stale cache entry if there is one, else
        greedy — booked and marked with its ``source``; ``None`` when both
        rungs are switched off or empty.  The ladder's lower rungs, and the
        whole of the admission layer's *degrade* verdict.
        """
        hit = self.cache.stale(fingerprint, max_age=max_stale) if stale else None
        if hit is not None:
            value, age = hit
            latency = time.perf_counter() - start
            self.metrics.record_degraded("stale", latency)
            return ServiceResponse.from_outcome(
                value, cached=True, latency=latency, source="stale", staleness=age
            )
        if not greedy:
            return None
        # Greedy answers are NOT admitted to the cache: they must never
        # shadow an exact answer for the same fingerprint.
        outcome = greedy_outcome(request)
        latency = time.perf_counter() - start
        self.metrics.record_degraded("greedy", latency)
        return ServiceResponse.from_outcome(
            outcome, cached=False, latency=latency, source="greedy"
        )

    # A method only because the e2e harness primes caches with it (ROADMAP 1(iii)).
    def admit(self, request: SolveRequest, outcome: SolveOutcome) -> None:
        """Install a finished solve into the cache."""
        fingerprint = outcome.fingerprint
        with span("cache.admit", fingerprint=fingerprint[:12]):
            self.cache.put(fingerprint, outcome)
