"""Service observability: counters, latency histograms, derived ratios.

Prometheus-style fixed-bucket histograms (cumulative ``le`` counts) rather
than reservoirs: snapshots are cheap, mergeable, and deterministic.  The
headline derived numbers are the **cache hit rate** and the **warm-start
speedup ratio** — mean solver iterations of cold solves over warm ones,
the quantity the acceptance tests pin.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    bucket_quantile,
    exact_quantile,
)
from repro.util.tables import format_table

#: Raw observations retained for exact quantiles.  Tail quantiles (p999)
#: on fewer samples than this are *exact*; beyond it the histogram falls
#: back to bucket interpolation.  2048 floats is ~16 KiB per histogram.
EXACT_SAMPLE_CAP = 2048


@dataclass
class LatencyHistogram:
    """Fixed-bucket histogram of seconds, with count/sum like Prometheus.

    Quantiles are **exact** while every observation is still retained (up
    to :data:`EXACT_SAMPLE_CAP` raw samples — small-sample p999 is an order
    statistic, not a bucket bound) and linearly interpolated within the
    covering bucket once the reservoir overflows.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    sample_cap: int = EXACT_SAMPLE_CAP

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +1: overflow
        self._samples: list[float] = []

    def observe(self, seconds: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, seconds)] += 1
        self.total += 1
        self.sum += seconds
        if len(self._samples) < self.sample_cap:
            self._samples.append(seconds)

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0
        self.sum = 0.0
        self._samples = []

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Quantile estimate: exact on small samples, interpolated after.

        While every observation is retained (``total <= sample_cap``) this
        is the interpolated order statistic of the raw samples.  Once the
        reservoir has overflowed, it interpolates linearly inside the
        bucket covering the target rank — a strictly better estimate than
        the bucket's upper bound, and identical at the bucket boundaries.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        if self.total <= len(self._samples):
            return exact_quantile(sorted(self._samples), q)
        return bucket_quantile(self.buckets, self.counts, self.total, q)

    def snapshot(self) -> dict:
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
            "buckets": {
                str(b): c for b, c in zip(self.buckets, self.counts) if c
            },
        }


@dataclass
class ServiceMetrics:
    """Everything the service counts, plus the derived headline ratios.

    A request is booked exactly once, by one of :meth:`record_hit`,
    :meth:`record_solve`, :meth:`record_degraded` or
    :meth:`record_rejection` — so ``requests`` always equals the sum of the
    outcome counters.  Behind the serving tier those four are called from
    two threads (the event loop books hits and admission-degraded answers,
    the shard thread books solves and the ladder), hence the lock.
    """

    requests: int = 0
    cache_hits: int = 0
    cold_solves: int = 0
    warm_solves: int = 0
    solve_errors: int = 0
    timeouts: int = 0
    overloads: int = 0
    request_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    cold_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    warm_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    cold_iterations: int = 0
    warm_iterations: int = 0
    # -- resilience accounting (supervisor / retry / breaker / ladder) -----
    retries: int = 0
    worker_crashes: int = 0
    worker_hangs: int = 0
    worker_restarts: int = 0
    corruptions: int = 0
    degraded_stale: int = 0
    degraded_greedy: int = 0
    rejections: int = 0
    breaker_blocks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def misses(self) -> int:
        return self.cold_solves + self.warm_solves

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def warm_start_speedup(self) -> float:
        """Mean cold iterations / mean warm iterations (1.0 until both seen)."""
        if not (self.cold_solves and self.warm_solves):
            return 1.0
        cold = self.cold_iterations / self.cold_solves
        warm = self.warm_iterations / self.warm_solves
        return cold / warm if warm else float("inf")

    def record_hit(self, latency: float) -> None:
        with self._lock:
            self.requests += 1
            self.cache_hits += 1
            self.request_latency.observe(latency)
        REGISTRY.counter("service_requests_total").inc(outcome="hit")
        REGISTRY.histogram("service_request_seconds").observe(latency)

    def record_solve(
        self, latency: float, *, warm: bool, iterations: int, ok: bool
    ) -> None:
        outcome = "error" if not ok else ("warm" if warm else "cold")
        with self._lock:
            self.requests += 1
            self.request_latency.observe(latency)
            if not ok:
                self.solve_errors += 1
            elif warm:
                self.warm_solves += 1
                self.warm_iterations += iterations
                self.warm_latency.observe(latency)
            else:
                self.cold_solves += 1
                self.cold_iterations += iterations
                self.cold_latency.observe(latency)
        REGISTRY.histogram("service_request_seconds").observe(latency)
        REGISTRY.counter("service_requests_total").inc(outcome=outcome)

    def record_timeout(self) -> None:
        self.timeouts += 1
        REGISTRY.counter("service_timeouts_total").inc()

    def record_retry(self) -> None:
        self.retries += 1
        REGISTRY.counter("service_retries_total").inc()

    def record_worker_failure(self, kind: str) -> None:
        """One worker death (crash or hang) caught on the request path.

        The ``service_worker_failures_total`` registry counter is bumped by
        the supervised pool itself (it fires even on metrics-less pools);
        this method only maintains the service-local mirror.
        """
        if kind == "hang":
            self.worker_hangs += 1
        else:
            self.worker_crashes += 1

    def record_worker_restart(self) -> None:
        self.worker_restarts += 1

    def record_corruption(self) -> None:
        self.corruptions += 1
        REGISTRY.counter("service_corruptions_total").inc()

    def record_degraded(self, mode: str, latency: float) -> None:
        """A request answered by a ladder rung below exact (stale/greedy)."""
        if mode not in ("stale", "greedy"):
            raise ValueError(f"unknown degraded mode {mode!r}")
        with self._lock:
            self.requests += 1
            self.request_latency.observe(latency)
            if mode == "stale":
                self.degraded_stale += 1
            else:
                self.degraded_greedy += 1
        REGISTRY.counter("service_requests_total").inc(outcome=mode)
        REGISTRY.counter("service_degraded_total").inc(mode=mode)
        REGISTRY.histogram("service_request_seconds").observe(latency)

    def record_rejection(self, latency: float) -> None:
        """The ladder's explicit bottom: a typed refusal."""
        with self._lock:
            self.requests += 1
            self.rejections += 1
            self.request_latency.observe(latency)
        REGISTRY.counter("service_requests_total").inc(outcome="rejected")
        REGISTRY.counter("service_rejections_total").inc()
        REGISTRY.histogram("service_request_seconds").observe(latency)

    def record_breaker_block(self) -> None:
        self.breaker_blocks += 1
        REGISTRY.counter("service_breaker_blocks_total").inc()

    def record_overload(self) -> None:
        self.overloads += 1
        REGISTRY.counter("service_overloads_total").inc()

    def reset(self) -> None:
        """Zero every counter and histogram (the registry mirror is global
        and keeps accumulating; reset that separately if needed)."""
        self.__init__()

    def snapshot(self) -> dict:
        """One structured, JSON-ready view of every counter and histogram."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_misses": self.misses,
            "hit_rate": self.hit_rate,
            "cold_solves": self.cold_solves,
            "warm_solves": self.warm_solves,
            "solve_errors": self.solve_errors,
            "timeouts": self.timeouts,
            "overloads": self.overloads,
            "warm_start_speedup": self.warm_start_speedup,
            "latency": self.request_latency.snapshot(),
            "cold_latency": self.cold_latency.snapshot(),
            "warm_latency": self.warm_latency.snapshot(),
            "resilience": {
                "retries": self.retries,
                "worker_crashes": self.worker_crashes,
                "worker_hangs": self.worker_hangs,
                "worker_restarts": self.worker_restarts,
                "corruptions": self.corruptions,
                "degraded_stale": self.degraded_stale,
                "degraded_greedy": self.degraded_greedy,
                "rejections": self.rejections,
                "breaker_blocks": self.breaker_blocks,
            },
        }

    def render(self) -> str:
        """Human-readable summary table (printed by the CLI)."""
        snap = self.snapshot()
        rows = [
            ["requests", snap["requests"]],
            ["cache hits", snap["cache_hits"]],
            ["hit rate", f"{snap['hit_rate']:.1%}"],
            ["cold solves", snap["cold_solves"]],
            ["warm solves", snap["warm_solves"]],
            ["errors / timeouts / overloads",
             f"{snap['solve_errors']} / {snap['timeouts']} / {snap['overloads']}"],
            ["retries", self.retries],
            ["worker crashes / hangs / restarts",
             f"{self.worker_crashes} / {self.worker_hangs} / {self.worker_restarts}"],
            ["degraded stale / greedy / rejected",
             f"{self.degraded_stale} / {self.degraded_greedy} / {self.rejections}"],
            ["warm-start speedup", f"{snap['warm_start_speedup']:.2f}x"],
            ["mean latency", f"{self.request_latency.mean * 1e3:.2f} ms"],
            ["p95 latency", f"{self.request_latency.quantile(0.95) * 1e3:.2f} ms"],
        ]
        return format_table(["metric", "value"], rows, title="allocation service")
