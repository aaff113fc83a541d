"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-flavoured semantics with zero dependencies:

* **Counter** — monotone float, ``inc()``-only, optional labels;
* **Gauge** — last-write-wins float, optional labels;
* **Histogram** — cumulative fixed buckets plus ``_sum``/``_count``, the
  same shape :class:`repro.service.metrics.LatencyHistogram` uses, so the
  service's numbers merge into one scrape.  The bucket table and the two
  quantile routines (:func:`exact_quantile`, :func:`bucket_quantile`) live
  here once; the service histogram and the SLO tracker call them.

Labeled children are keyed by a sorted ``(name, value)`` tuple, so label
order never mints a new series.  The module-level :data:`REGISTRY` is the
process-wide default; tests build private :class:`MetricsRegistry`
instances instead of resetting the global one mid-flight.
"""

from __future__ import annotations

import bisect
import os
import threading
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
    """Common shape: name, help text, typed label-keyed children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        for key, v in sorted(self._values.items()):
            yield self.name, key, v

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(Metric):
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        for key, v in sorted(self._values.items()):
            yield self.name, key, v

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Histogram(Metric):
    """Cumulative fixed-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.buckets = bounds
        self._counts: dict[_LabelKey, list[int]] = {}
        self._sums: dict[_LabelKey, float] = {}
        self._totals: dict[_LabelKey, int] = {}
        self._samples: dict[_LabelKey, list[float]] = {}
        self._exemplars: dict[_LabelKey, dict[int, tuple[str, float]]] = {}

    def observe(self, value: float, exemplar: str | None = None, **labels: str) -> None:
        """Record one observation; ``exemplar`` ties it to a ``trace_id``.

        Exemplars are kept per native bucket, latest-wins, so a scrape can
        point from a slow bucket straight at a request trace to pull up.
        """
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
                self._sums[key] = 0.0
                self._totals[key] = 0
                self._samples[key] = []
            idx = bisect.bisect_left(self.buckets, value)
            counts[idx] += 1
            self._sums[key] += value
            self._totals[key] += 1
            retained = self._samples[key]
            if len(retained) < EXACT_SAMPLE_CAP:
                retained.append(value)
            if exemplar:
                self._exemplars.setdefault(key, {})[idx] = (str(exemplar), value)

    def exemplars(self) -> Iterator[tuple[_LabelKey, str, str, float]]:
        """Yield ``(label_key, le, trace_id, value)`` for every kept exemplar."""
        with self._lock:
            kept = {k: dict(v) for k, v in self._exemplars.items()}
        for key in sorted(kept):
            for idx, (trace_id, value) in sorted(kept[key].items()):
                le = "+Inf" if idx == len(self.buckets) else repr(self.buckets[idx])
                yield key, le, trace_id, value

    def count(self, **labels: str) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(labels), 0.0)

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
        key = _label_key(labels)
        with self._lock:
            total = self._totals.get(key, 0)
            if total == 0:
                return 0.0
            retained = self._samples.get(key, [])
            if total <= len(retained):
                return exact_quantile(sorted(retained), q)
            return bucket_quantile(self.buckets, self._counts[key], total, q)

    def samples(self) -> Iterator[tuple[str, _LabelKey, float]]:
        """Prometheus-shaped samples: quantiles, cumulative buckets, sum/count.

        The quantile rows (summary-style ``{quantile="0.999"}`` labels)
        carry the exact-or-interpolated estimates of :meth:`quantile`, so a
        scrape reports tail latency without the consumer re-deriving it
        from buckets.
        """
        for key in sorted(self._counts):
            counts = self._counts[key]
            for q in EXPORTED_QUANTILES:
                yield self.name, key + (("quantile", repr(q)),), self.quantile(
                    q, **dict(key)
                )
            running = 0
            for bound, c in zip(self.buckets, counts):
                running += c
                yield f"{self.name}_bucket", key + (("le", repr(bound)),), float(running)
            running += counts[-1]
            yield f"{self.name}_bucket", key + (("le", "+Inf"),), float(running)
            yield f"{self.name}_sum", key, self._sums[key]
            yield f"{self.name}_count", key, float(self._totals[key])

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            self._totals.clear()
            self._samples.clear()
            self._exemplars.clear()


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors and one snapshot view."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
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
        """Zero every registered metric (families stay registered)."""
        for metric in self:
            metric.reset()


#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def _fresh_locks_after_fork() -> None:
    # Pool workers are forked while other threads may be mid-``inc``; a lock
    # copied in the held state would deadlock the child's first metric call.
    REGISTRY._lock = threading.Lock()
    for metric in REGISTRY._metrics.values():
        metric._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)
