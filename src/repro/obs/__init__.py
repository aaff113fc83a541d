"""Unified observability: tracing, metrics, SLOs, logging, and exporters.

Zero-dependency instrumentation for the HSLB pipeline and the allocation
service, built from small pieces:

* :mod:`repro.obs.trace` — a span-based tracer.  ``with span("solve"):``
  produces a nested span tree with wall-times, tags, and point events;
  span stacks live in :mod:`contextvars`, so concurrent asyncio tasks and
  threads each nest correctly, and every span carries
  ``trace_id``/``span_id``/``parent_id`` — request trees are real trees
  across tasks and threads.  Disabled
  (the default) it costs one attribute check and returns a shared no-op
  span, so instrumented hot paths stay hot.
* :mod:`repro.obs.metrics` — registries of counters, gauges, and
  fixed-bucket histograms (with trace exemplars on buckets): the
  process-wide ``REGISTRY`` plus *scopes* (``MetricsRegistry(parent=...)``)
  whose writes forward outwards, so an owner's numbers
  (:class:`repro.service.metrics.ServiceMetrics` is a view over one) and
  the one scrape of the whole process are the same series.
* :mod:`repro.obs.telemetry` — the catalogue: every metric family declared
  once (name, kind, help, labels), plus the solver/pipeline recording hooks.
* :mod:`repro.obs.slo` — rolling-time-window SLO tracking: per-priority
  latency quantiles, shed/error rates, and burn rates against
  configurable targets.
* :mod:`repro.obs.http` — an in-loop asyncio ``/metrics`` + ``/healthz``
  endpoint for live scrapes of a running tier.
* :mod:`repro.obs.dashboard` — ``hslb top``: a terminal dashboard
  rendered from parsed exposition samples.
* :mod:`repro.obs.logging` — a structured logging facade replacing raw
  ``print`` chatter: leveled, always on stderr, machine-clean stdout.
* :mod:`repro.obs.export` — exporters: JSONL trace dumps (with
  ``assemble_trace`` to rebuild one request's tree), Prometheus text
  exposition with exemplars (and a round-trip parser), and ASCII
  timeline/flamegraph renders.

Determinism contract: observability *records* wall-clock but never feeds it
back — span/metric state must not influence solver decisions, RNG streams,
or the service's request fingerprints (see DESIGN.md "Observability").
"""

from repro.obs.logging import configure_logging, get_logger, set_verbosity
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import DEFAULT_TARGETS, SLOTarget, SLOTracker
from repro.obs.trace import (
    Span,
    Tracer,
    get_tracer,
    span,
    trace_event,
)

__all__ = [
    "DEFAULT_TARGETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOTarget",
    "SLOTracker",
    "Span",
    "Tracer",
    "configure_logging",
    "get_logger",
    "get_tracer",
    "set_verbosity",
    "span",
    "trace_event",
]
