"""The asyncio serving tier: sharded caches, coalescing, tiered admission.

This is the front end the ROADMAP's "millions of users" story needs — the
two-level split of the dynlb subsystem applied to serving instead of
compute.  **Coarse level**: a consistent-hash ring places every request's
*family* (curve set, budget removed) onto one of N shards, so all budgets
of a family share one shard's cache and one shard's circuit breaker: the
breaker trips per family, and a family's traffic stays on the shard whose
cache already holds its answers.  No solve reads another solve's state, so
placement decides where an answer is cached, never what it is.
**Fine level**: within a shard, requests are coalesced (single-flight: N
identical in-flight requests ride one solve) and solved on the event loop
(below).

The layers, bottom-up::

    transport   serve_stdio — asyncio JSONL framing, one task per line,
                out-of-order completion, id passthrough;
                run_requests — the synchronous batch API
    scheduling  AsyncServingTier.submit — admission (accept / degrade /
                shed by priority), ring routing, single-flight coalescing
    solving     one AllocationService per shard — cache, breaker,
                retries, validation, degradation ladder: every solve is
                dispatched and booked by ``AllocationService.submit``

**Where a request is answered.**  On the event loop, always: every
request is one budget row that ``core.greedy`` answers exactly in 0.1-0.2 ms
on served budgets (tens of milliseconds at the largest budget a request may
carry), less than a hop to a thread or a process would cost.  A tier
therefore starts no thread and forks no process.  A solve finishes before
the next task runs, so it is never *pending*: on real traffic admission's
degrade / shed bands and single-flight riders cannot fire.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from typing import IO

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker
from repro.obs.telemetry import family
from repro.obs.trace import span
from repro.service.admission import (
    DEFAULT_PRIORITY,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.coalesce import FlightStats, SingleFlight
from repro.service.errors import ServiceError, ServiceOverloadError
from repro.service.metrics import ServiceMetrics
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse, error_payload
from repro.service.service import AllocationService, ResiliencePolicy
from repro.service.sharding import HashRing


@dataclass(frozen=True)
class TierConfig:
    """Everything the async tier needs, in one value object."""

    shards: int = 4
    # One accepted value, "inline"; set and recorded by the e2e harness
    # (ROADMAP 1(iii)).  Every solve runs on the event loop.
    worker_mode: str = "inline"
    coalesce: bool = True
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 256  # per shard
    ttl: float | None = None
    resilience: ResiliencePolicy | None = None
    chaos: object | None = None  # ChaosPlan, injected into every solve

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("the tier needs at least one shard")
        if self.worker_mode != "inline":
            raise ValueError(
                f"unknown worker mode {self.worker_mode!r}; every solve runs "
                "inline, on the event loop"
            )

    @classmethod
    def for_host(cls, cores: int | None = None, **overrides) -> "TierConfig":
        """``TierConfig(**overrides)``: the host's core count changes nothing,
        since no solve leaves the event loop.  The signature is the e2e
        harness's (ROADMAP 1(iii))."""
        del cores
        return cls(**overrides)


class _Shard:
    """One shard: its service and its flight table."""

    def __init__(self, name: str, config: TierConfig, parent: MetricsRegistry) -> None:
        self.name = name
        self.service = AllocationService(
            cache_capacity=config.cache_capacity,
            ttl=config.ttl,
            resilience=config.resilience,
            chaos=config.chaos,
            metrics=ServiceMetrics(parent=parent),
        )
        self.flights = SingleFlight()
        self.requests = 0

    async def solve(self, request: SolveRequest) -> ServiceResponse:
        """Run one ``AllocationService.submit`` on the event loop."""
        with span("shard.solve", shard=self.name):
            return self.service.submit(request)


class AsyncServingTier:
    """Consistent-hash sharded, coalescing, admission-controlled front end."""

    def __init__(
        self,
        config: TierConfig | None = None,
        *,
        slo: SLOTracker | None = None,
    ) -> None:
        self.config = config or TierConfig()
        # The tier's scope sits between its shards' and the process
        # registry: whatever a shard books is already the tier's total.
        self.metrics = ServiceMetrics()
        self.shards: dict[str, _Shard] = {
            f"shard-{i}": _Shard(f"shard-{i}", self.config, self.metrics.registry)
            for i in range(self.config.shards)
        }
        self.ring = HashRing(self.shards)
        self.admission = AdmissionController(self.config.admission)
        # End-to-end latency, queue wait included, one observation per
        # request served — hits, degraded answers and sheds too.
        self.latency = family(self.metrics.registry, "service_tier_request_seconds")
        self.slo = slo if slo is not None else SLOTracker()
        self.pending = 0

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release — the tier owns no thread or process; kept so
        ``async with`` and explicit callers need not know that."""

    async def __aenter__(self) -> "AsyncServingTier":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    # -- the request path ----------------------------------------------------

    def route(self, request: SolveRequest) -> str:
        """The shard owning ``request``'s family."""
        return self.ring.lookup(request.family_key())

    async def submit(
        self,
        request: SolveRequest,
        *,
        priority: str = DEFAULT_PRIORITY,
    ) -> ServiceResponse:
        """Answer one request through admission, routing, and coalescing.

        Raises :class:`ServiceOverloadError` when the request is shed and
        whatever the shard's service raises when its ladder runs out —
        the same contract as :meth:`AllocationService.submit`.
        """
        start = time.perf_counter()
        shard = self.shards[self.route(request)]
        shard.requests += 1
        fingerprint = request.fingerprint()
        with span("tier.submit") as sp:
            sp.set_tag("shard", shard.name)
            sp.set_tag("priority", priority)
            with span("tier.admission") as adm:
                decision = self.admission.decide(priority, self.pending)
                adm.set_tag("decision", decision.value)
            sp.set_tag("admission", decision.value)
            if decision is AdmissionDecision.SHED:
                self._observe(start, trace_id=sp.trace_id)
                self.slo.record(priority, None, "shed")
                self.metrics.count("overloads")
                capacity = self.config.admission.max_pending
                raise ServiceOverloadError(
                    pending=self.pending,
                    capacity=capacity,
                    retry_after=self._retry_after(self.pending - capacity // 2),
                )

            # Fast path: a live cache hit never queues, whatever the verdict.
            cached = shard.service.cache.get(fingerprint)
            if cached is not None:
                latency = self._observe(start, trace_id=sp.trace_id)
                shard.service.metrics.record_hit(latency)
                self.slo.record(priority, latency, "ok")
                return self._stamp(
                    ServiceResponse.from_outcome(
                        cached, cached=True, latency=latency
                    ),
                    sp,
                )

            if decision is AdmissionDecision.DEGRADE:
                # The middle verdict: stale cache if present, else greedy —
                # microseconds, with the ladder's provenance conventions, so
                # a scrape cannot mistake a load-shedding answer for exact.
                response = shard.service.degrade(request, fingerprint, start)
                self._observe(start, trace_id=sp.trace_id)
                self.slo.record(priority, response.latency, "degraded")
                return self._stamp(response, sp)

            self.pending += 1
            led = False

            async def _leader_solve():
                nonlocal led
                led = True
                return await shard.solve(request)

            try:
                if self.config.coalesce:
                    with span("tier.coalesce") as flight:
                        response = await shard.flights.run(
                            fingerprint, _leader_solve
                        )
                    flight.set_tag("role", "leader" if led else "rider")
                else:
                    response = await shard.solve(request)
            except ServiceError:
                self.slo.record(
                    priority, time.perf_counter() - start, "error"
                )
                raise
            finally:
                self.pending -= 1
            latency = self._observe(start, trace_id=sp.trace_id)
            self.slo.record(
                priority,
                latency,
                "ok" if response.ok
                else ("degraded" if response.degraded else "error"),
            )
            return self._stamp(response, sp)

    # -- accounting ----------------------------------------------------------

    @staticmethod
    def _stamp(response: ServiceResponse, sp) -> ServiceResponse:
        """Return the response carrying the request's trace id (if traced)."""
        if sp.trace_id and not response.trace_id:
            return replace(response, trace_id=sp.trace_id)
        return response

    def _observe(self, start: float, trace_id: str = "") -> float:
        latency = time.perf_counter() - start
        self.latency.observe(latency, exemplar=trace_id or None)
        return latency

    def _retry_after(self, excess: int, fallback: float = 0.05) -> float:
        """Drain-time hint for shed work: the excess at the observed mean
        latency (``fallback`` seconds each until anything has been served)."""
        served = self.latency.count()
        return max(1, excess) * (self.latency.sum() / served if served else fallback)

    def snapshot(self) -> dict:
        """One structured view of the whole tier (JSON-ready).

        The totals are the tier scope's own series — what its shards booked
        plus what the tier books itself (sheds, end-to-end latency).
        """
        totals = self.metrics.snapshot()
        per_shard = {}
        for name, shard in self.shards.items():
            metrics = shard.service.metrics
            per_shard[name] = {
                "routed": shard.requests,
                "requests": metrics.requests,
                "hit_rate": metrics.hit_rate,
                "coalesce": shard.flights.stats.as_dict(),
            }
        flights = [shard.flights.stats for shard in self.shards.values()]
        return {
            **totals,
            "shards": len(self.shards),
            "served": self.latency.count(),
            "pending": self.pending,
            "admission": self.admission.as_dict(),
            "coalesce": FlightStats(
                leaders=sum(f.leaders for f in flights),
                riders=sum(f.riders for f in flights),
            ).as_dict(),
            "latency": self.latency.summary(),
            "slo": self.slo.snapshot(),
            "per_shard": per_shard,
        }


# -- transport: asyncio JSONL framing -----------------------------------------


def serve_stdio(
    tier: AsyncServingTier,
    stdin: IO[str],
    stdout: IO[str],
    *,
    metrics_port: int | None = None,
    metrics_host: str = "127.0.0.1",
) -> int:
    """Serve JSONL over stdio until EOF or ``quit`` — the ``hslb serve``
    transport, with or without ``--async``.

    Requests are handled concurrently (one task per line), so responses may
    arrive out of order; clients that care attach an ``id`` and match on
    its echo.  Returns the number of requests served.

    With ``metrics_port`` set, a :class:`repro.obs.http.MetricsServer`
    runs on the same loop for the lifetime of the serve: ``/metrics``
    scrapes the process registry (SLO gauges refreshed per scrape) and
    ``/healthz`` reports tier liveness.  Port 0 binds an ephemeral port.
    """

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        lock = asyncio.Lock()

        async def emit(payload: dict) -> None:
            async with lock:
                stdout.write(json.dumps(payload) + "\n")
                stdout.flush()

        async def lines():
            while True:
                line = await loop.run_in_executor(None, stdin.readline)
                if not line:
                    return
                yield line

        server = None
        if metrics_port is not None:
            from repro.obs.http import MetricsServer

            server = MetricsServer(
                slo=tier.slo,
                health=lambda: {
                    "served": tier.latency.count(),
                    "pending": tier.pending,
                    "shards": len(tier.shards),
                },
                host=metrics_host,
                port=metrics_port,
            )
            await server.start()
            get_logger("service.frontend").info(
                f"metrics endpoint live on {server.url}/metrics"
            )
        try:
            async with tier:
                return await _serve_lines(tier, lines(), emit)
        finally:
            if server is not None:
                await server.stop()

    return asyncio.run(_run())


async def _serve_lines(
    tier: AsyncServingTier,
    lines,
    emit: Callable[[dict], object],
) -> int:
    """The transport-agnostic request loop: parse, dispatch, drain."""
    served = 0
    tasks: set[asyncio.Task] = set()

    async def handle(payload: dict) -> None:
        # The wire format: ``priority`` rides in the payload; ``id`` (opaque
        # to the tier) is echoed so out-of-order responses stay matchable.
        try:
            request = SolveRequest.from_dict(payload)
            answer = await tier.submit(
                request,
                priority=str(payload.get("priority", DEFAULT_PRIORITY)),
            )
            response = {**answer.to_dict(), "shard": tier.route(request)}
        except ServiceError as exc:
            response = error_payload(exc)
        except Exception as exc:  # noqa: BLE001 - the transport keeps running
            # A bug, not a caller error — but still this line's answer: a
            # task that died silently would leave its ``id`` waiting forever.
            get_logger("service.frontend").error(
                "request handler failed", traceback=traceback.format_exc()
            )
            response = error_payload(
                ServiceError(f"internal error ({type(exc).__name__}: {exc})")
            )
        if "id" in payload:
            response["id"] = payload["id"]
        await emit(response)

    async for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack.
            await emit({"error": f"bad JSON: {exc}"})
            continue
        if not isinstance(payload, dict):
            await emit({"error": "each line must be a JSON object"})
            continue
        cmd = payload.get("cmd")
        if cmd == "quit":
            break
        if cmd == "metrics":
            await emit({"metrics": tier.snapshot()})
            continue
        if cmd is not None:
            await emit({"error": f"unknown command {cmd!r}"})
            continue
        served += 1
        task = asyncio.create_task(handle(payload))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)
    return served


def run_requests(
    tier: AsyncServingTier,
    requests: Iterable[SolveRequest],
    *,
    priority: str = DEFAULT_PRIORITY,
) -> list[ServiceResponse]:
    """The synchronous batch API: answer ``requests`` in input order.

    Every request becomes one task on a fresh event loop, so the tier does
    the batching: equal fingerprints coalesce onto one solve (or hit the
    cache), distinct families fan out across shards, and every answer is
    the one a lone ``solve_request`` of its request would give, whatever
    the batch's order.  One bad request never poisons the batch — a raised
    :class:`ServiceError` comes back as a typed envelope in its slot.

    A batch larger than the tier's ``max_pending`` is refused whole with
    :class:`ServiceOverloadError` (classic queue backpressure, not silent
    truncation) before any request is admitted; ``retry_after`` is the
    time to drain the excess at the observed mean latency, falling back to
    a conservative constant.
    """
    requests = list(requests)
    capacity = tier.config.admission.max_pending
    if len(requests) > capacity:
        for _ in requests:
            tier.slo.record(priority, None, "shed")
        tier.metrics.count("overloads")
        raise ServiceOverloadError(
            pending=len(requests),
            capacity=capacity,
            retry_after=tier._retry_after(len(requests) - capacity, 0.1),
        )

    async def _run() -> list[ServiceResponse]:
        async def one(req: SolveRequest) -> ServiceResponse:
            try:
                return await tier.submit(req, priority=priority)
            except ServiceError as exc:
                return ServiceResponse.from_error(exc, req.fingerprint())

        async with tier:
            return list(await asyncio.gather(*(one(r) for r in requests)))

    return asyncio.run(_run())
