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
identical in-flight requests ride one solve) and solved serially on the
shard's thread.
Min-max and max-min requests are answered directly by ``core.greedy`` on
that thread (:mod:`repro.service.solver` says which objective goes where);
nothing in this module depends on which solver ran, or in which process.

The layers, bottom-up::

    transport   serve_stdio — asyncio JSONL framing, one task per line,
                out-of-order completion, id passthrough;
                run_requests — the synchronous batch API
    scheduling  AsyncServingTier.submit — admission (accept / degrade /
                shed by priority), ring routing, single-flight coalescing
    solving     one AllocationService per shard — cache, breaker,
                retries, validation, degradation ladder: every solve is
                dispatched and booked by ``AllocationService.submit``

Worker modes decide only *where* that submit's MINLP solves run; a min-max
or max-min request is answered by the heap on the shard's own thread in
every mode (``AllocationService`` keeps both seams and
``Objective.has_direct_solver`` picks: the hop to a worker process costs
several times the sub-millisecond solve it would carry — DESIGN.md, "Worker
modes", has the numbers).  ``"thread"`` (default) gives each shard a
one-thread executor: shard state has one solving writer, the event loop
stays responsive and nothing forks.  ``"process"`` is thread mode whose
service ships what builds a MINLP — min-sum today — to one supervised worker
process per shard: the parallel mode for those, since a branch-and-bound is
milliseconds of GIL-bound Python; a worker that dies or hangs is replaced
and the solve re-dispatched by the service's own retry loop.  ``"inline"``
runs submits directly on the event loop — fully deterministic, the mode the
tests use.  All three modes give every request the same answer.
"""

from __future__ import annotations

import asyncio
import contextvars
import io
import json
import os
import time
import traceback
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
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
from repro.service.supervisor import SupervisedWorkerPool

_WORKER_MODES = ("thread", "process", "inline")


@dataclass(frozen=True)
class TierConfig:
    """Everything the async tier needs, in one value object."""

    shards: int = 4
    worker_mode: str = "thread"
    coalesce: bool = True
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 256  # per shard
    ttl: float | None = None
    resilience: ResiliencePolicy | None = None
    # ChaosPlan: injected in-process wherever a solve runs on the shard's own
    # thread (every solve of an inline/thread shard, the min-max / max-min
    # ones of a process shard), shipped to — and physically enacted in — the
    # worker with every solve a process shard ships.
    chaos: object | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("the tier needs at least one shard")
        if self.worker_mode not in _WORKER_MODES:
            raise ValueError(
                f"unknown worker mode {self.worker_mode!r}; "
                f"expected one of {_WORKER_MODES}"
            )

    @classmethod
    def for_host(cls, cores: int | None = None, **overrides) -> "TierConfig":
        """A config matched to the host's CPU budget.

        Multi-core hosts get ``"process"`` workers (shards run their MINLP
        solves — min-sum — in parallel across cores); a single-core host
        gets ``"thread"`` workers — with one core, forking a worker buys no
        parallelism and only adds the process hop.  Either way a min-max /
        max-min request never leaves the shard thread: a tier that serves
        only those forks workers it never uses (one idle process per shard).
        Explicit ``overrides`` win over the derived fields.
        """
        if cores is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity
                cores = os.cpu_count() or 1
        derived = {"worker_mode": "process" if cores > 1 else "thread"}
        derived.update(overrides)
        return cls(**derived)


class _Shard:
    """One shard: its service, its flight table, its solving thread."""

    def __init__(self, name: str, config: TierConfig, parent: MetricsRegistry) -> None:
        self.name = name
        self.mode = config.worker_mode
        self.service = AllocationService(
            cache_capacity=config.cache_capacity,
            ttl=config.ttl,
            resilience=config.resilience,
            chaos=config.chaos,
            pool=SupervisedWorkerPool(1) if self.mode == "process" else None,
            metrics=ServiceMetrics(parent=parent),
        )
        self.flights = SingleFlight()
        self.requests = 0
        # One thread per shard: shard state (cache, breaker) has one solving
        # writer.  Costs no parallelism: a shard has one worker, and the
        # direct solves this thread runs itself are sub-millisecond.
        self.executor: ThreadPoolExecutor | None = (
            None
            if self.mode == "inline"
            else ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"hslb-{name}"
            )
        )

    async def solve(
        self, request: SolveRequest, deadline: float | None
    ) -> ServiceResponse:
        """Run one ``AllocationService.submit`` on this shard's thread."""
        if self.executor is None:
            with span("shard.solve", shard=self.name, mode="inline"):
                return self.service.submit(request, deadline=deadline)
        # run_in_executor does NOT carry contextvars; the thread runs in a
        # copy of the current context so its spans nest under this request.
        # The queue span lives in that copy only: opened here at submit,
        # closed by the shard thread when it picks the request up.
        ctx = contextvars.copy_context()
        queued = span("shard.queue", shard=self.name)
        ctx.run(queued.__enter__)

        def on_shard_thread() -> ServiceResponse:
            queued.__exit__(None, None, None)
            with span("shard.solve", shard=self.name, mode=self.mode):
                return self.service.submit(request, deadline=deadline)

        return await asyncio.get_running_loop().run_in_executor(
            self.executor, ctx.run, on_shard_thread
        )

    def close(self) -> None:
        # Workers first: a solve still in flight dies with its worker and
        # surfaces as a typed error, so the thread below always drains.
        if self.service.pool is not None:
            self.service.pool.shutdown()
        if self.executor is not None:
            self.executor.shutdown(wait=True)


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
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers (idempotent)."""
        if not self._closed:
            self._closed = True
            for shard in self.shards.values():
                shard.close()

    async def __aenter__(self) -> "AsyncServingTier":
        await self.warm_up()
        return self

    async def warm_up(self) -> None:
        """Pre-fork process-mode pool workers while the process is quiet.

        A worker pool forks lazily at first submit — by which time a
        transport may have parked a thread in a blocking
        ``stdin.readline`` (see :func:`serve_stdio`).  A child forked while
        another thread holds ``sys.stdin``'s buffered-reader lock deadlocks
        in multiprocessing's ``_close_stdin`` bootstrap before it ever runs
        a task.  Forking every worker up front, from this thread, before
        any transport or shard thread exists, sidesteps that entirely — and
        moves the fork cost off the first request's latency.
        """
        pools = [shard.service.pool for shard in self.shards.values()]
        started = [
            (pool, dispatch)
            for pool in pools
            if pool is not None
            for dispatch in pool.warm_up()
        ]
        for pool, dispatch in started:
            pool.result(dispatch)

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
        deadline: float | None = None,
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
                return await shard.solve(request, deadline)

            try:
                if self.config.coalesce:
                    with span("tier.coalesce") as flight:
                        response = await shard.flights.run(
                            fingerprint, _leader_solve
                        )
                    flight.set_tag("role", "leader" if led else "rider")
                else:
                    response = await shard.solve(request, deadline)
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
            "worker_mode": self.config.worker_mode,
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
    deadline: float | None = None,
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

        # Read from a private dup of stdin, not ``stdin`` itself: the
        # reader thread below holds its file's lock for the whole blocking
        # readline, and a process-pool worker forked meanwhile would
        # deadlock closing an inherited, locked ``sys.stdin`` in its
        # multiprocessing bootstrap.  Fake stdins without a real fd (tests)
        # fall back to being read directly — they never fork workers.
        try:
            source = os.fdopen(os.dup(stdin.fileno()), "r")
        except (OSError, ValueError, AttributeError, io.UnsupportedOperation):
            source = None

        async def lines():
            reader = source if source is not None else stdin
            while True:
                line = await loop.run_in_executor(None, reader.readline)
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
                return await _serve_lines(
                    tier, lines(), emit, deadline=deadline
                )
        finally:
            if server is not None:
                await server.stop()
            if source is not None:
                source.close()

    return asyncio.run(_run())


async def _serve_lines(
    tier: AsyncServingTier,
    lines,
    emit: Callable[[dict], object],
    *,
    deadline: float | None = None,
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
                deadline=deadline,
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
        except json.JSONDecodeError as exc:
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
    deadline: float | None = None,
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
    ``deadline`` and then to a conservative constant.
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
            retry_after=tier._retry_after(
                len(requests) - capacity, deadline or 0.1
            ),
        )

    async def _run() -> list[ServiceResponse]:
        async def one(req: SolveRequest) -> ServiceResponse:
            try:
                return await tier.submit(
                    req, priority=priority, deadline=deadline
                )
            except ServiceError as exc:
                return ServiceResponse.from_error(exc, req.fingerprint())

        async with tier:
            return list(await asyncio.gather(*(one(r) for r in requests)))

    return asyncio.run(_run())
