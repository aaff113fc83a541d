"""The allocation service: cached solves behind one entry point.

:meth:`AllocationService.submit` is the only place a solve is dispatched,
validated, booked, retried and laddered — every shard of the serving tier,
and through it ``hslb serve``, ``hslb batch`` and ``run_requests``, end here.

Request lifecycle::

    submit(request)
      -> canonicalize + fingerprint            (request.py)
      -> cache lookup                          (cache.py; hit: done, ~µs)
      -> circuit breaker check                 (breaker.py; open: degrade)
      -> solve on the calling thread — in a
         serving tier, the event loop — retried
         at once on an injected crash or hang  (solver.py, retry.py)
      -> result validation (corruption check)  (solver.py)
      -> cache insert
      -> metrics

A solve sees its request and nothing else: no starting point and no OA cuts
carry over from earlier solves.  Every request is one budget row, answered
exactly by ``core.greedy`` in well under a millisecond (``solver.py``), so
a solve runs where it is submitted: no worker process, no thread hop, no
time budget to enforce.

Faults are typed and in-process.  Under a
:class:`~repro.faults.chaos.ChaosPlan` the solve raises
:class:`WorkerCrashError` / :class:`WorkerHangError` or returns a slow or
corrupt outcome; the loop below catches, counts and retries them.  Crashes
and hangs are *system* failures, so they are retried once even with no
:class:`ResiliencePolicy` installed.  Nothing on this path sleeps.

Cached answers are bit-identical to fresh solves: no solve draws a random
number or reads state another solve left behind, so replaying the request
in any process, in any order, yields the same allocation and objective the
cache stored.

**The degradation ladder.**  With a :class:`ResiliencePolicy` installed, a
request that cannot get an exact answer — injected crashes, hangs or
corruptions exhausted its retries, or the family's circuit breaker is
open — walks down explicit rungs instead of failing:

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

from repro.minlp.solution import Status
from repro.obs.trace import span
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.cache import SolutionCache
from repro.service.errors import (
    ServiceRejectedError,
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

#: Without a policy an injected crash or hang still earns one retry.
_SYSTEM_RETRY = RetryPolicy(max_attempts=2)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every knob of the resilient request path, in one value object.

    ``retry`` / ``breaker``
        Retry and circuit-breaking policies (their own modules).
    ``max_stale``
        Oldest entry age (seconds since insert) the stale rung may serve;
        ``None`` serves any entry still physically cached.
    ``allow_stale`` / ``allow_greedy``
        Switch individual rungs off (a rejected request is still typed).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    max_stale: float | None = None
    allow_stale: bool = True
    allow_greedy: bool = True

    def __post_init__(self) -> None:
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be >= 0 (or None)")


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
        self.breaker = (
            CircuitBreaker(resilience.breaker, clock=clock) if resilience else None
        )
        # The one solve seam: ``solve_request``, under a chaos plan with its
        # faults raised as typed errors.
        if chaos is not None:
            from repro.faults.chaos import chaotic_solve

            self._solve = chaotic_solve(chaos, solve_request)
        else:
            self._solve = lambda request, *, attempt=0: solve_request(request)

    # -- the request path --------------------------------------------------

    def submit(self, request: SolveRequest) -> ServiceResponse:
        """Answer one request from cache, a solve, or the ladder.

        With no resilience policy installed, an injected crash or hang that
        outlives its one free retry propagates as its typed error; with
        one, :class:`ServiceRejectedError` is raised when the degradation
        ladder runs out of rungs.  An infeasible request comes back as a
        response with ``ok=False`` instead — the caller's retry policy
        differs.
        """
        with span("service.submit") as sp:
            response = self._submit(request)
            sp.set_tag("cached", response.cached)
            sp.set_tag("status", response.status)
            sp.set_tag("source", response.source)
        return response

    def _submit(self, request: SolveRequest) -> ServiceResponse:
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
        retry = policy.retry if policy else _SYSTEM_RETRY
        last_reason = "no solve attempt ran"
        worker_error = None
        for attempt in range(retry.max_attempts):
            if attempt:
                self.metrics.count("retries")
            try:
                outcome = self._solve(request, attempt=attempt)
            except (WorkerCrashError, WorkerHangError) as exc:
                hang = isinstance(exc, WorkerHangError)
                self.metrics.count("worker_hangs" if hang else "worker_crashes")
                last_reason = str(exc)
                worker_error = exc
                continue
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
            # A finished solve — optimal, or an infeasible request that no
            # retry changes.
            if self.breaker is not None:
                # Any *completed* solve is a system success — even an
                # infeasible request proves the solver ran.
                self.breaker.record_success(family)
            if ok:
                self.admit(request, outcome)
            return ServiceResponse.from_outcome(outcome, cached=False, latency=latency)
        if self.breaker is not None:
            self.breaker.record_failure(family)
        if policy is None:
            # Without a policy nothing validates, so only a crash or a hang
            # on every attempt ends the loop.
            raise worker_error
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
