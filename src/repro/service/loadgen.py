"""Trace-driven load generation for the async serving tier.

Real allocation traffic has three statistical signatures the benchmarks
need to reproduce:

* **Zipf popularity** — a handful of production configurations dominate
  the stream, with a long tail of one-off what-ifs (the same heavy-tail
  model ``bench_service.py`` established);
* **diurnal rate** — request volume swells and ebbs over the day, so a
  tier tuned on flat-rate traffic has never seen its own peak;
* **flash crowds** — short spikes several times the diurnal peak (a
  campaign re-plans its whole fleet at once), the regime that separates
  admission control from a full queue falling over.

Every draw is **keyed** (:func:`repro.util.rng.keyed_rng` on the spec seed
and the event index), so the same :class:`TraceSpec` yields a bit-identical
trace in any process on any run — the property that lets the CI smoke
assert exact zero-lost-request counts and lets two benchmark runs replay
the same traffic against different tiers.

The replay engine is open-loop (arrivals follow the trace clock scaled by
``speed``, independent of how fast the tier answers — the honest way to
measure an overloaded service) with ``speed=0`` meaning "one concurrent
burst", the closed-form worst case the coalescing tests use.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import Histogram
from repro.perf.model import PerformanceModel
from repro.service.admission import PRIORITIES
from repro.service.errors import (
    ServiceError,
    ServiceOverloadError,
)
from repro.service.frontend import AsyncServingTier
from repro.service.request import ComponentSpec, SolveRequest
from repro.service.response import ServiceResponse
from repro.util.rng import keyed_rng

#: Base curve set traffic families are scaled from (CESM-ish coupled
#: components; the same shape bench_service.py uses).
BASE_CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}


_DIURNAL_PERIODS = 1.0  # "days" the diurnal swing completes across a trace
_FLASH_WIDTH = 0.02  # flash-crowd sigma, as a fraction of the trace's duration


@dataclass(frozen=True)
class TraceSpec:
    """One reproducible traffic recipe: pool, popularity, and rate shape."""

    n_requests: int = 1000
    seed: int = 20120427
    n_families: int = 3
    budgets: tuple[int, ...] = (48, 64, 72, 96)
    zipf_exponent: float = 1.1
    duration: float = 60.0  # virtual trace-time seconds
    diurnal_amplitude: float = 0.5  # rate swing, 0 = flat, <1 keeps rate > 0
    flash_crowds: int = 1
    flash_magnitude: float = 4.0  # rate multiplier at a spike's peak
    priority_mix: tuple[tuple[str, float], ...] = (
        ("interactive", 0.5),
        ("batch", 0.3),
        ("background", 0.2),
    )

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("a trace needs at least one request")
        if self.n_families < 1 or not self.budgets:
            raise ValueError("the request pool must be non-empty")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.flash_crowds < 0 or self.flash_magnitude < 0:
            raise ValueError("flash crowd parameters must be non-negative")
        total = sum(w for _, w in self.priority_mix)
        if total <= 0 or any(w < 0 for _, w in self.priority_mix):
            raise ValueError("priority mix weights must be non-negative")


@dataclass(frozen=True)
class TraceEvent:
    """One request arrival: when, what, and how urgent."""

    index: int
    time: float  # virtual seconds since trace start
    request: SolveRequest
    priority: str

    def to_payload(self) -> dict:
        payload = self.request.to_dict()
        payload["priority"] = self.priority
        payload["id"] = self.index
        return payload


def request_pool(spec: TraceSpec) -> list[SolveRequest]:
    """The distinct requests behind a trace: families x node budgets.

    Family ``k`` scales the base curves by a keyed-RNG factor, so two specs
    with equal seeds describe identical pools (and equal fingerprints).
    """
    pool: list[SolveRequest] = []
    for k in range(spec.n_families):
        rng = keyed_rng(spec.seed, "family", k)
        scale = float(rng.uniform(0.8, 2.5))
        components = {
            name: ComponentSpec(
                model=PerformanceModel(
                    a=params["a"] * scale,
                    b=params["b"],
                    c=params["c"],
                    d=params["d"],
                )
            )
            for name, params in BASE_CURVES.items()
        }
        for budget in spec.budgets:
            pool.append(
                SolveRequest(components=components, total_nodes=budget)
            )
    return pool


def _rate_curve(spec: TraceSpec, resolution: int = 2048) -> np.ndarray:
    """Relative arrival rate sampled on a uniform grid over the trace."""
    t = np.linspace(0.0, 1.0, resolution)
    rate = 1.0 + spec.diurnal_amplitude * np.sin(
        2.0 * np.pi * _DIURNAL_PERIODS * t - 0.5 * np.pi
    )
    for k in range(spec.flash_crowds):
        rng = keyed_rng(spec.seed, "flash", k)
        center = float(rng.uniform(0.15, 0.85))
        rate = rate + spec.flash_magnitude * np.exp(
            -0.5 * ((t - center) / _FLASH_WIDTH) ** 2
        )
    return rate


def arrival_times(spec: TraceSpec) -> np.ndarray:
    """Deterministic arrival times following the diurnal + flash rate.

    Inverse-transform sampling of the cumulative rate: event ``i`` arrives
    where the integrated rate reaches ``(i + 1/2)/n`` of its total — dense
    where the rate curve is high, sparse in the troughs, identical on
    every run.
    """
    rate = _rate_curve(spec)
    cumulative = np.cumsum(rate)
    cumulative = cumulative / cumulative[-1]
    targets = (np.arange(spec.n_requests) + 0.5) / spec.n_requests
    grid = np.searchsorted(cumulative, targets)
    return grid / (len(rate) - 1) * spec.duration


def generate_trace(spec: TraceSpec) -> list[TraceEvent]:
    """The full trace: Zipf-ranked picks at diurnal/flash arrival times."""
    pool = request_pool(spec)
    # Popularity rank is decoupled from construction order by a keyed
    # shuffle — otherwise family 0 / budget 0 would always be the hot key.
    order = keyed_rng(spec.seed, "rank").permutation(len(pool))
    weights = 1.0 / np.arange(1, len(pool) + 1) ** spec.zipf_exponent
    weights /= weights.sum()
    times = arrival_times(spec)
    names = tuple(name for name, _ in spec.priority_mix)
    mix = np.array([w for _, w in spec.priority_mix], dtype=float)
    mix /= mix.sum()
    events: list[TraceEvent] = []
    for i in range(spec.n_requests):
        rng = keyed_rng(spec.seed, "event", i)
        rank = rng.choice(len(pool), p=weights)
        priority = names[rng.choice(len(names), p=mix)]
        events.append(
            TraceEvent(
                index=i,
                time=float(times[i]),
                request=pool[order[rank]],
                priority=priority,
            )
        )
    return events


@dataclass
class ReplayReport:
    """Everything one replay measured, JSON- and gate-ready."""

    n_requests: int
    wall_time: float
    throughput_rps: float
    # One family, private to the report: the unlabelled series is every
    # answered request, ``priority=...`` the same request under its class.
    latency: Histogram = field(
        default_factory=lambda: Histogram("replay_latency_seconds")
    )
    sources: Counter = field(default_factory=Counter)
    priorities: Counter = field(default_factory=Counter)
    shed: int = 0
    errors: int = 0
    lost: int = 0  # requests that got neither an answer nor a typed error
    coalesce: dict = field(default_factory=dict)
    tier: dict = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Requests that got an allocation (any rung above rejection)."""
        return self.n_requests - self.shed - self.errors - self.lost

    def observe_latency(self, priority: str, seconds: float) -> None:
        """Record one answered request's latency, overall and per class."""
        self.priorities[priority] += 1
        self.latency.observe(seconds)
        self.latency.observe(seconds, priority=priority)

    def snapshot(self) -> dict:
        lat = self.latency.summary()
        per_priority = {
            name: {
                "count": snap["count"],
                "p50": snap["p50"],
                "p99": snap["p99"],
                "p999": snap["p999"],
                "mean_latency": snap["mean"],
            }
            for name in sorted(self.priorities)
            if self.latency.count(priority=name)  # skips the "shed:" tallies
            for snap in (self.latency.summary(priority=name),)
        }
        return {
            "n_requests": self.n_requests,
            "wall_time": self.wall_time,
            "throughput_rps": self.throughput_rps,
            "answered": self.answered,
            "shed": self.shed,
            "errors": self.errors,
            "lost": self.lost,
            "sources": dict(self.sources),
            "priorities": dict(self.priorities),
            "p50": lat["p50"],
            "p99": lat["p99"],
            "p999": lat["p999"],
            "mean_latency": lat["mean"],
            "per_priority": per_priority,
            "coalesce": dict(self.coalesce),
            "tier": dict(self.tier),
        }


async def replay_async(
    tier: AsyncServingTier,
    trace: list[TraceEvent],
    *,
    speed: float = 0.0,
) -> ReplayReport:
    """Replay ``trace`` against ``tier``; every event gets an account.

    ``speed`` scales trace time into wall time (``10`` replays a 60s trace
    in 6s); ``0`` skips the clock entirely and releases the whole trace as
    one concurrent burst.  A shed request (typed overload) and an error
    envelope are *answered* outcomes; ``lost`` counts only requests whose
    task died without producing either — the number CI pins at zero.
    """
    report = ReplayReport(n_requests=len(trace), wall_time=0.0, throughput_rps=0.0)
    start = time.perf_counter()

    async def one(event: TraceEvent) -> None:
        if speed > 0:
            delay = event.time / speed - (time.perf_counter() - start)
            if delay > 0:
                await asyncio.sleep(delay)
        t0 = time.perf_counter()
        try:
            response: ServiceResponse = await tier.submit(
                event.request, priority=event.priority
            )
        except ServiceOverloadError:
            report.shed += 1
            report.priorities[f"shed:{event.priority}"] += 1
            return
        except ServiceError:
            report.errors += 1
            return
        report.observe_latency(event.priority, time.perf_counter() - t0)
        report.sources[response.source] += 1
        if not response.ok:
            report.errors += 1

    async with tier:
        results = await asyncio.gather(
            *(one(e) for e in trace), return_exceptions=True
        )
    report.lost = sum(1 for r in results if isinstance(r, BaseException))
    report.wall_time = time.perf_counter() - start
    report.throughput_rps = (
        len(trace) / report.wall_time if report.wall_time > 0 else 0.0
    )
    report.coalesce = tier.snapshot()["coalesce"]
    report.tier = {
        "shards": len(tier.shards),
        "hit_rate": tier.snapshot()["hit_rate"],
        "admission": tier.admission.as_dict(),
    }
    return report


def replay(
    tier: AsyncServingTier,
    trace: list[TraceEvent],
    *,
    speed: float = 0.0,
) -> ReplayReport:
    """Synchronous wrapper around :func:`replay_async` (fresh event loop)."""
    return asyncio.run(replay_async(tier, trace, speed=speed))


def priority_histogram(trace: list[TraceEvent]) -> dict[str, int]:
    """Per-class arrival counts (sanity checks and reports)."""
    counts = Counter(e.priority for e in trace)
    return {name: counts.get(name, 0) for name in PRIORITIES}
