"""Rolling-window SLO tracking: per-priority quantiles, rates, burn rates.

The serving tier promises different things to different admission classes
(an interactive caller cares about p99 latency; background batch work
cares about not being shed).  :class:`SLOTracker` measures those promises
over a *rolling time window* — not since process start — so a burst of
slowness shows up immediately and ages out once resolved.

Mechanics: the window is a ring of coarse time buckets.  Each request
outcome lands in the bucket covering ``now`` under its priority; snapshots
aggregate the buckets still inside the window.  The clock is injectable so
tests drive time by hand and stay deterministic.

**Burn rate** follows the SRE convention: the rate the error budget is
being consumed, ``(bad fraction) / (1 - objective)``.  At 1.0 the budget
burns exactly as fast as it accrues; above 1.0 the target will be missed
if the rate holds.  A latency SLO counts a request "bad" when it is slower
than the threshold *or* failed outright; an availability SLO counts sheds
and errors only.

Feeds: :meth:`repro.service.frontend.AsyncServingTier.submit` reports
every outcome here; the ``slo_*`` gauges exported by
:meth:`SLOTracker.export` ride the normal Prometheus scrape.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, exact_quantile
from repro.obs.telemetry import family

#: Outcomes a request can land in, from the tracker's point of view.
OUTCOMES = ("ok", "degraded", "shed", "error")

#: Raw latency samples retained per (priority, bucket); beyond this the
#: quantile degrades gracefully to the retained subsample.
BUCKET_SAMPLE_CAP = 512


@dataclass(frozen=True)
class SLOTarget:
    """One objective: e.g. "99% of interactive requests under 250 ms".

    ``latency`` is the per-request slowness threshold in seconds; ``None``
    makes this an availability objective (only sheds/errors burn budget).
    ``priority=None`` applies the target across all classes.
    """

    name: str
    objective: float = 0.99
    priority: str | None = None
    latency: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.latency is not None and self.latency <= 0:
            raise ValueError("latency threshold must be positive")


#: Default targets: the tier's standing promises unless the caller says
#: otherwise.  Interactive requests get a latency SLO; everything gets an
#: availability SLO.
DEFAULT_TARGETS = (
    SLOTarget("interactive_latency", 0.99, "interactive", 0.25),
    SLOTarget("availability", 0.999),
)


@dataclass
class _Bucket:
    """One time slice of one priority's outcomes."""

    epoch: int = -1
    counts: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    def clear(self, epoch: int) -> None:
        self.epoch = epoch
        self.counts.clear()
        self.latencies.clear()


class SLOTracker:
    """Rolling-window outcome accounting against a set of SLO targets."""

    def __init__(
        self,
        targets: tuple[SLOTarget, ...] = DEFAULT_TARGETS,
        *,
        window: float = 60.0,
        buckets: int = 12,
        clock=time.monotonic,
    ) -> None:
        if window <= 0 or buckets <= 0:
            raise ValueError("window and buckets must be positive")
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO target names")
        self.targets = tuple(targets)
        self.window = float(window)
        self.n_buckets = int(buckets)
        self.width = self.window / self.n_buckets
        self._clock = clock
        self._lock = threading.Lock()
        self._rings: dict[str, list[_Bucket]] = {}

    # -- recording ---------------------------------------------------------

    def record(
        self, priority: str, latency: float | None, outcome: str = "ok"
    ) -> None:
        """Book one finished request: its class, latency, and how it ended.

        ``latency`` may be ``None`` for requests that never ran (sheds).
        """
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        now = self._clock()
        epoch = int(now / self.width)
        with self._lock:
            ring = self._rings.get(priority)
            if ring is None:
                ring = self._rings[priority] = [
                    _Bucket() for _ in range(self.n_buckets)
                ]
            bucket = ring[epoch % self.n_buckets]
            if bucket.epoch != epoch:
                bucket.clear(epoch)
            bucket.counts[outcome] = bucket.counts.get(outcome, 0) + 1
            if latency is not None and len(bucket.latencies) < BUCKET_SAMPLE_CAP:
                bucket.latencies.append(float(latency))

    # -- aggregation -------------------------------------------------------

    def _window_view(self, now: float) -> dict[str, tuple[dict[str, int], list[float]]]:
        """Live counts and latencies per priority, stale buckets excluded."""
        floor = int(now / self.width) - self.n_buckets + 1
        view: dict[str, tuple[dict[str, int], list[float]]] = {}
        with self._lock:
            for priority, ring in self._rings.items():
                counts: dict[str, int] = {}
                latencies: list[float] = []
                for bucket in ring:
                    if bucket.epoch < floor:
                        continue
                    for outcome, n in bucket.counts.items():
                        counts[outcome] = counts.get(outcome, 0) + n
                    latencies.extend(bucket.latencies)
                if counts:
                    view[priority] = (counts, latencies)
        return view

    def _burn(self, target: SLOTarget, counts: dict[str, int], latencies: list[float]) -> tuple[float, int, int]:
        """(burn_rate, bad, total) for one target over one outcome pool."""
        total = sum(counts.values())
        if total == 0:
            return 0.0, 0, 0
        bad = counts.get("shed", 0) + counts.get("error", 0)
        if target.latency is not None:
            bad += sum(1 for v in latencies if v > target.latency)
        return (bad / total) / (1.0 - target.objective), bad, total

    def snapshot(self, now: float | None = None) -> dict:
        """The whole window as JSON-ready numbers.

        ``priorities`` carries per-class p50/p99/p999 latency and
        shed/error/degraded rates; ``targets`` carries each SLO's burn
        rate, bad/total counts, and a ``healthy`` verdict (burn <= 1).
        """
        now = self._clock() if now is None else now
        view = self._window_view(now)
        priorities: dict[str, dict] = {}
        for priority, (counts, latencies) in sorted(view.items()):
            total = sum(counts.values())
            latencies = sorted(latencies)
            priorities[priority] = {
                "total": total,
                "p50": exact_quantile(latencies, 0.50),
                "p99": exact_quantile(latencies, 0.99),
                "p999": exact_quantile(latencies, 0.999),
                "shed_rate": counts.get("shed", 0) / total,
                "error_rate": counts.get("error", 0) / total,
                "degraded_rate": counts.get("degraded", 0) / total,
            }
        targets: dict[str, dict] = {}
        for target in self.targets:
            if target.priority is None:
                counts: dict[str, int] = {}
                latencies = []
                for c, lat in view.values():
                    for outcome, n in c.items():
                        counts[outcome] = counts.get(outcome, 0) + n
                    latencies.extend(lat)
            else:
                counts, latencies = view.get(target.priority, ({}, []))
            burn, bad, total = self._burn(target, counts, latencies)
            targets[target.name] = {
                "objective": target.objective,
                "priority": target.priority,
                "latency_threshold": target.latency,
                "burn_rate": burn,
                "bad": bad,
                "total": total,
                "healthy": burn <= 1.0,
            }
        return {"window": self.window, "priorities": priorities, "targets": targets}

    def export(self, registry: MetricsRegistry) -> None:
        """Publish the current window as ``slo_*`` gauges on ``registry``.

        The gauges are cleared first: a class that has aged out of the
        window must leave the scrape with it, not linger at its last value.
        """
        snap = self.snapshot()
        lat, rate, burn, total = (
            family(registry, name)
            for name in (
                "slo_latency_seconds",
                "slo_outcome_rate",
                "slo_burn_rate",
                "slo_window_requests",
            )
        )
        for gauge in (lat, rate, burn, total):
            gauge.reset()
        for priority, stats in snap["priorities"].items():
            for q in ("p50", "p99", "p999"):
                lat.set(stats[q], priority=priority, quantile=q)
            for kind in ("shed", "error", "degraded"):
                rate.set(stats[f"{kind}_rate"], priority=priority, kind=kind)
            total.set(stats["total"], priority=priority)
        for name, stats in snap["targets"].items():
            burn.set(stats["burn_rate"], target=name)

    def render(self, width: int = 60) -> str:
        """Terminal summary of the window — the `hslb top` SLO panel."""
        snap = self.snapshot()
        lines = [f"SLO window: {snap['window']:g}s"]
        for priority, stats in snap["priorities"].items():
            lines.append(
                f"  {priority:<12} n={stats['total']:<5d}"
                f" p50={stats['p50'] * 1e3:8.2f}ms p99={stats['p99'] * 1e3:8.2f}ms"
                f" shed={stats['shed_rate']:.1%} err={stats['error_rate']:.1%}"
            )
        for name, stats in snap["targets"].items():
            mark = "ok" if stats["healthy"] else "BURNING"
            lines.append(
                f"  [{mark:>7}] {name}: burn={stats['burn_rate']:.2f}"
                f" ({stats['bad']}/{stats['total']} bad, slo={stats['objective']:g})"
            )
        return "\n".join(lines)
