"""Service observability: a view over one scope of the ``obs`` registry.

:class:`ServiceMetrics` stores nothing itself.  It owns a *scope*
(:class:`repro.obs.metrics.MetricsRegistry` with a parent): each
``record_*`` call is one ``inc``/``observe`` on a scoped family, which is
at once this owner's number, every enclosing owner's total (a shard's
service → its tier → the process ``REGISTRY``) and the Prometheus scrape.
Every attribute the view exposes is read back from those series, so a
snapshot and a scrape cannot disagree.

The headline derived number is the **cache hit rate**.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.telemetry import family
from repro.util.tables import format_table

#: Attribute -> the one series it reads (and ``record_*`` / ``count`` write).
_COUNTS = {
    "cache_hits": ("service_requests_total", {"outcome": "hit"}),
    "cold_solves": ("service_requests_total", {"outcome": "cold"}),
    "solve_errors": ("service_requests_total", {"outcome": "error"}),
    "degraded_stale": ("service_requests_total", {"outcome": "stale"}),
    "degraded_greedy": ("service_requests_total", {"outcome": "greedy"}),
    "rejections": ("service_requests_total", {"outcome": "rejected"}),
    "overloads": ("service_overloads_total", {}),
    "retries": ("service_retries_total", {}),
    "worker_crashes": ("service_worker_failures_total", {"kind": "crash"}),
    "worker_hangs": ("service_worker_failures_total", {"kind": "hang"}),
    "corruptions": ("service_corruptions_total", {}),
    "breaker_blocks": ("service_breaker_blocks_total", {}),
}

_RESILIENCE = (
    "retries", "worker_crashes", "worker_hangs", "corruptions", "degraded_stale", "degraded_greedy", "rejections",
    "breaker_blocks",
)


class ServiceMetrics:
    """Everything the service counts, plus the derived headline ratios.

    A request is booked exactly once, by one of :meth:`record_hit`,
    :meth:`record_solve`, :meth:`record_degraded` or
    :meth:`record_rejection`, and ``requests`` is *defined* as the sum of
    the ``service_requests_total{outcome}`` series — so it equals the sum
    of the outcome counts by construction, whichever threads are booking
    (behind the serving tier the event loop books all of them).

    ``parent`` is the registry the scope forwards to: the process registry
    by default, a tier's scope for its shards, ``None`` for a detached view.
    """

    def __init__(self, parent: MetricsRegistry | None = REGISTRY) -> None:
        self.registry = MetricsRegistry(parent=parent)
        self._series = {
            attr: family(self.registry, name).bind(**labels)
            for attr, (name, labels) in _COUNTS.items()
        }
        self._outcomes = family(self.registry, "service_requests_total")
        self.request_latency = family(self.registry, "service_request_seconds")

    def __getattr__(self, name: str) -> int:
        # Only reached for names not set in __init__: the counts of _COUNTS.
        series = self.__dict__.get("_series", {}).get(name)
        if series is None:
            raise AttributeError(name)
        return int(series.value())

    @property
    def requests(self) -> int:
        return int(self._outcomes.total())

    @property
    def hit_rate(self) -> float:
        requests = self.requests
        return self.cache_hits / requests if requests else 0.0

    def _book(self, outcome: str, latency: float) -> None:
        self._series[outcome].inc()
        self.request_latency.observe(latency)

    def record_hit(self, latency: float) -> None:
        self._book("cache_hits", latency)

    def record_solve(self, latency: float, *, ok: bool) -> None:
        self._book("cold_solves" if ok else "solve_errors", latency)

    def record_degraded(self, mode: str, latency: float) -> None:
        """A request answered by a ladder rung below exact (stale/greedy)."""
        self._book(f"degraded_{mode}", latency)

    def record_rejection(self, latency: float) -> None:
        """The ladder's explicit bottom: a typed refusal."""
        self._book("rejections", latency)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a count that is not a request's booking: ``retries``,
        ``overloads``, ``corruptions``, ``breaker_blocks``,
        ``worker_crashes`` / ``worker_hangs`` (one injected fault each)."""
        self._series[name].inc(amount)

    def reset(self) -> None:
        """Zero this scope (enclosing registries keep what was forwarded to
        them and go on accumulating; reset those separately if needed)."""
        self.registry.reset()

    def snapshot(self) -> dict:
        """One structured, JSON-ready view: every count of the table, the
        derived ratios and the latency summary."""
        counts = {name: getattr(self, name) for name in _COUNTS}
        return {
            "requests": self.requests,
            **counts,
            "warm_solves": 0,  # read by the e2e harness (ROADMAP 1(iii))
            "cache_misses": self.cold_solves,
            "hit_rate": self.hit_rate,
            "latency": self.request_latency.summary(),
            "resilience": {name: counts[name] for name in _RESILIENCE},
        }

    def render(self) -> str:
        """Human-readable summary table (printed by the CLI)."""
        snap = self.snapshot()
        rows = [
            ["requests", snap["requests"]],
            ["cache hits", snap["cache_hits"]],
            ["hit rate", f"{snap['hit_rate']:.1%}"],
            ["solves", snap["cold_solves"]],
            ["errors / overloads", f"{snap['solve_errors']} / {snap['overloads']}"],
            ["retries", snap["retries"]],
            ["injected crashes / hangs",
             f"{snap['worker_crashes']} / {snap['worker_hangs']}"],
            ["degraded stale / greedy / rejected",
             f"{snap['degraded_stale']} / {snap['degraded_greedy']}"
             f" / {snap['rejections']}"],
            ["mean latency", f"{snap['latency']['mean'] * 1e3:.2f} ms"],
            ["p95 latency", f"{snap['latency']['p95'] * 1e3:.2f} ms"],
        ]
        return format_table(["metric", "value"], rows, title="allocation service")
