"""Allocation-as-a-service: the HSLB optimizer as a query engine.

The pipeline in :mod:`repro.core.hslb` answers one question per call.  This
subsystem turns it into a service for heavy allocation traffic — many users
asking "how do I split N nodes across these components?" for overlapping
curves and budgets — by exploiting the fact that HSLB is *static*: a solve
depends only on its canonical request, so answers cache perfectly and
replay bit-identically in any process and any order.

Layers (each its own module, composable in isolation):

* :mod:`~repro.service.request`    — canonicalization + fingerprinting;
* :mod:`~repro.service.cache`      — LRU/TTL solution cache with accounting
  (expired entries retained for bounded-staleness serving);
* :mod:`~repro.service.solver`     — the pure fingerprint-seeded solve, its
  corruption validator, and the greedy approximate fallback;
* :mod:`~repro.service.service`    — the one dispatch path: cache,
  breaker, retries, validation, metrics and the
  degradation ladder (exact → stale → greedy → typed rejection);
* :mod:`~repro.service.retry`      — how many attempts a request gets;
* :mod:`~repro.service.breaker`    — per-family circuit breaker;
* :mod:`~repro.service.sharding`   — consistent-hash ring placing request
  families onto cache shards;
* :mod:`~repro.service.coalesce`   — single-flight coalescing of identical
  in-flight requests;
* :mod:`~repro.service.admission`  — tiered admission control (accept /
  degrade / shed by priority class);
* :mod:`~repro.service.frontend`   — the asyncio serving tier, its JSONL
  transport (``hslb serve``, inline or ``--async``) and ``run_requests``,
  the synchronous batch API (``hslb batch``, ``hslb chaos``);
* :mod:`~repro.service.loadgen`    — trace-driven load generation (Zipf +
  diurnal + flash-crowd shapes) and async replay;
* :mod:`~repro.service.metrics`    — :class:`ServiceMetrics`, a view over a
  scope of the :mod:`repro.obs.metrics` registry (shard → tier → process);
* :mod:`~repro.service.errors`     — typed failures (overload, rejection,
  injected crash/hang).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    ClassThresholds,
)
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.cache import CacheStats, SolutionCache
from repro.service.coalesce import FlightStats, SingleFlight
from repro.service.errors import (
    ServiceError,
    ServiceOverloadError,
    ServiceRejectedError,
    ServiceRequestError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.frontend import (
    AsyncServingTier,
    TierConfig,
    run_requests,
    serve_stdio,
)
from repro.service.loadgen import (
    ReplayReport,
    TraceEvent,
    TraceSpec,
    generate_trace,
    replay,
    replay_async,
)
from repro.service.metrics import ServiceMetrics
from repro.service.request import ComponentSpec, SolveRequest
from repro.service.response import ServiceResponse
from repro.service.retry import RetryPolicy
from repro.service.service import AllocationService, ResiliencePolicy
from repro.service.sharding import HashRing
from repro.service.solver import SolveOutcome, greedy_outcome, solve_request

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AllocationService",
    "AsyncServingTier",
    "BreakerPolicy",
    "CacheStats",
    "CircuitBreaker",
    "ClassThresholds",
    "ComponentSpec",
    "FlightStats",
    "HashRing",
    "ResiliencePolicy",
    "ReplayReport",
    "RetryPolicy",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadError",
    "ServiceRejectedError",
    "ServiceRequestError",
    "ServiceResponse",
    "SingleFlight",
    "SolutionCache",
    "SolveOutcome",
    "SolveRequest",
    "TierConfig",
    "TraceEvent",
    "TraceSpec",
    "WorkerCrashError",
    "WorkerHangError",
    "generate_trace",
    "greedy_outcome",
    "replay",
    "replay_async",
    "run_requests",
    "serve_stdio",
    "solve_request",
]
