"""The metrics registry: counters, gauges, fixed-bucket histograms, scopes.

Prometheus-flavoured semantics with zero dependencies:

* **Counter** — monotone float, ``inc()``-only, optional labels;
* **Gauge** — last-write-wins float, optional labels;
* **Histogram** — cumulative fixed buckets plus ``_sum``/``_count``, with
  exact quantiles while a series is small.  The one histogram class, the
  one bucket table and the two quantile routines (:func:`exact_quantile`,
  :func:`bucket_quantile`) live here; the service, the tier, the load
  generator and the SLO tracker all use them.

Labeled children are keyed by a sorted ``(name, value)`` tuple, so label
order never mints a new series.  The module-level :data:`REGISTRY` is the
process-wide default; tests build private :class:`MetricsRegistry`
instances instead of resetting the global one mid-flight.

**Scopes.**  ``MetricsRegistry(parent=outer)`` is a *scope*: its counters
and histograms keep their own series **and** forward every write to the
same-named family of ``outer`` (which may itself be a scope).  One
``inc``/``observe`` at the booking site is therefore the owner's number,
every enclosing total and the process scrape at once — nothing is mirrored
by hand, so no two copies can disagree.  ``reset()`` zeroes one scope
only.  Gauges are last-write-wins and do not aggregate, so they are never
forwarded: a gauge lives on the registry it was set on.
"""

from __future__ import annotations

import bisect
import os
import threading
import weakref
from collections.abc import Iterator, Sequence

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Quantiles every histogram exports alongside its buckets.  p999 is the
#: tail the serving tier's latency SLO is stated in.
EXPORTED_QUANTILES = (0.5, 0.99, 0.999)

#: Raw observations retained per label key for exact quantiles; beyond
#: this the quantile falls back to in-bucket linear interpolation.
EXACT_SAMPLE_CAP = 1024

_LabelKey = tuple[tuple[str, str], ...]


def exact_quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Linear-interpolated order statistic of ``sorted_samples``."""
    if not sorted_samples:
        return 0.0
    pos = q * (len(sorted_samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    return sorted_samples[lo] + (sorted_samples[hi] - sorted_samples[lo]) * (pos - lo)


def bucket_quantile(
    buckets: Sequence[float], counts: Sequence[int], total: int, q: float
) -> float:
    """Quantile from per-bucket counts, linear inside the covering bucket.

    A strictly better estimate than the bucket's upper bound, and identical
    to it at the bucket boundaries; ``inf`` when the rank lands in the
    overflow bucket.
    """
    target = q * total
    seen = 0
    lower = 0.0
    for bound, count in zip(buckets, counts):
        if seen + count >= target and count:
            return lower + (bound - lower) * ((target - seen) / count)
        seen += count
        lower = bound
    return float("inf")


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common shape: name, help text, typed label-keyed children.

    ``parent`` is the same-named family of the enclosing registry (see
    :class:`MetricsRegistry`); a write walks the chain outwards, taking one
    family's lock at a time — never a child's and its parent's together.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", parent: "Metric | None" = None
    ) -> None:
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self._parent = parent
        self._lock = threading.Lock()

    def reset(self) -> None:
        raise NotImplementedError


class _Scalar(Metric):
    """One float per label key: what a counter and a gauge share."""

    def __init__(
        self, name: str, help: str = "", parent: "_Scalar | None" = None
    ) -> None:
        super().__init__(name, help, parent)
        self._values: dict[_LabelKey, float] = {}

    def _add(self, key: _LabelKey, amount: float) -> None:
        if amount < 0 and self.kind == "counter":
            raise ValueError("counters only go up")
        metric = self
        while metric is not None:
            with metric._lock:
                metric._values[key] = metric._values.get(key, 0.0) + amount
            metric = metric._parent

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(_label_key(labels) if labels else (), amount)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        with self._lock:
            rows = sorted(self._values.items())
        for key, v in rows:
            yield self.name, key, v

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Scalar):
    """Monotonically increasing value, optionally labeled."""

    kind = "counter"

    def bind(self, **labels: str) -> "BoundCounter":
        """One label series as a handle — the key is resolved once, so a
        hot booking site pays no label sorting per increment."""
        return BoundCounter(self, _label_key(labels))

    def total(self) -> float:
        """Sum over every label series (a consistent cut: taken under the
        lock, since another thread may be minting a series)."""
        with self._lock:
            return sum(self._values.values())


class BoundCounter:
    """One series of a :class:`Counter` (see :meth:`Counter.bind`)."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: _LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter._add(self._key, amount)

    def value(self) -> float:
        return self._counter._values.get(self._key, 0.0)


class Gauge(_Scalar):
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)


class _Series:
    """One label key's state inside a :class:`Histogram`."""

    __slots__ = ("counts", "sum", "total", "retained", "exemplars")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: overflow
        self.sum = 0.0
        self.total = 0
        self.retained: list[float] = []
        self.exemplars: dict[int, tuple[str, float]] = {}


class Histogram(Metric):
    """Cumulative fixed-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        parent: "Histogram | None" = None,
    ) -> None:
        super().__init__(name, help, parent)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a sorted non-empty sequence")
        if parent is not None and parent.buckets != bounds:
            raise ValueError(
                f"histogram {name!r} must share its enclosing family's buckets"
            )
        self.buckets = bounds
        self._series: dict[_LabelKey, _Series] = {}

    def observe(self, value: float, exemplar: str | None = None, **labels: str) -> None:
        """Record one observation; ``exemplar`` ties it to a ``trace_id``.

        Exemplars are kept per native bucket, latest-wins, so a scrape can
        point from a slow bucket straight at a request trace to pull up.
        """
        key = _label_key(labels) if labels else ()
        idx = bisect.bisect_left(self.buckets, value)
        metric = self
        while metric is not None:
            with metric._lock:
                series = metric._series.get(key)
                if series is None:
                    series = metric._series[key] = _Series(len(self.buckets))
                series.counts[idx] += 1
                series.sum += value
                series.total += 1
                if len(series.retained) < EXACT_SAMPLE_CAP:
                    series.retained.append(value)
                if exemplar:
                    series.exemplars[idx] = (str(exemplar), value)
            metric = metric._parent

    def exemplars(self) -> Iterator[tuple[_LabelKey, str, str, float]]:
        """Yield ``(label_key, le, trace_id, value)`` for every kept exemplar."""
        with self._lock:
            kept = {k: dict(s.exemplars) for k, s in self._series.items()}
        for key in sorted(kept):
            for idx, (trace_id, value) in sorted(kept[key].items()):
                le = "+Inf" if idx == len(self.buckets) else repr(self.buckets[idx])
                yield key, le, trace_id, value

    def _get(self, labels: dict[str, str]) -> _Series | None:
        return self._series.get(_label_key(labels) if labels else ())

    def count(self, **labels: str) -> int:
        series = self._get(labels)
        return series.total if series else 0

    def sum(self, **labels: str) -> float:
        series = self._get(labels)
        return series.sum if series else 0.0

    def _quantile(self, series: _Series | None, q: float) -> float:
        """``q`` of one series; the caller holds the lock."""
        if series is None or series.total == 0:
            return 0.0
        if series.total <= len(series.retained):
            return exact_quantile(sorted(series.retained), q)
        return bucket_quantile(self.buckets, series.counts, series.total, q)

    def quantile(self, q: float, **labels: str) -> float:
        """Quantile estimate: exact on small samples, interpolated after.

        While a label key has seen no more than :data:`EXACT_SAMPLE_CAP`
        observations, every one is still retained and the result is the
        interpolated order statistic — exact tail percentiles (p999) on
        small counts.  Past the cap, the estimate interpolates linearly
        inside the cumulative bucket covering the target rank.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            return self._quantile(self._get(labels), q)

    def summary(self, **labels: str) -> dict:
        """One series as JSON-ready numbers: count/sum/mean, the p50, p95,
        p99 and p999 of :meth:`quantile`, and the non-empty buckets."""
        with self._lock:
            series = self._get(labels) or _Series(len(self.buckets))
            return {
                "count": series.total,
                "sum": series.sum,
                "mean": series.sum / series.total if series.total else 0.0,
                "p50": self._quantile(series, 0.5),
                "p95": self._quantile(series, 0.95),
                "p99": self._quantile(series, 0.99),
                "p999": self._quantile(series, 0.999),
                "buckets": {
                    str(b): c for b, c in zip(self.buckets, series.counts) if c
                },
            }

    def samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        """Prometheus-shaped samples: quantiles, cumulative buckets, sum/count.

        The quantile rows (summary-style ``{quantile="0.999"}`` labels)
        carry the exact-or-interpolated estimates of :meth:`quantile`, so a
        scrape reports tail latency without the consumer re-deriving it
        from buckets.
        """
        with self._lock:
            rows = [
                (
                    key,
                    [self._quantile(series, q) for q in EXPORTED_QUANTILES],
                    list(series.counts),
                    series.sum,
                    series.total,
                )
                for key, series in sorted(self._series.items())
            ]
        for key, quantiles, counts, total_sum, total in rows:
            for q, value in zip(EXPORTED_QUANTILES, quantiles):
                yield self.name, key + (("quantile", repr(q)),), value
            running = 0
            for bound, c in zip(self.buckets, counts):
                running += c
                yield f"{self.name}_bucket", key + (("le", repr(bound)),), float(running)
            yield f"{self.name}_bucket", key + (("le", "+Inf"),), float(total)
            yield f"{self.name}_sum", key, total_sum
            yield f"{self.name}_count", key, float(total)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors and one snapshot view.

    With a ``parent`` the registry is a *scope* (module docstring): every
    counter and histogram it mints is chained to the parent's family of the
    same name, created there on demand with the same help and buckets.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self.parent = parent
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()
        _LIVE.add(self)

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            if self.parent is not None and cls is not Gauge:
                # Resolved before our lock is taken: locks are only ever
                # held one at a time along a scope chain.
                kwargs["parent"] = self.parent._get_or_create(
                    cls, name, help, **kwargs
                )
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name, help, **kwargs)
        if not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as {metric.kind}")
        if help and not metric.help:
            metric.help = help  # first minted by a booking site that gave none
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __iter__(self) -> Iterator[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """Flat JSON-ready view: ``{metric: {label-string: value}}``."""
        out: dict[str, dict[str, float]] = {}
        for metric in self:
            for name, key, value in metric.samples():
                label = ",".join(f"{k}={v}" for k, v in key)
                out.setdefault(name, {})[label] = value
        return out

    def reset(self) -> None:
        """Zero every metric of *this* registry (families stay registered;
        an enclosing registry keeps what was forwarded to it)."""
        for metric in self:
            metric.reset()


#: Every registry alive in this process, so a forked child can re-arm them.
_LIVE: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()

#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def _fresh_locks_after_fork() -> None:
    # A child may be forked while other threads are mid-``inc``; a lock
    # copied in the held state would deadlock the child's first metric call.
    # Scopes are covered too: a write to one walks up to ``REGISTRY``.
    for registry in list(_LIVE):
        registry._lock = threading.Lock()
        for metric in registry._metrics.values():
            metric._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)
