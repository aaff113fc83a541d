"""Tests for ServiceMetrics: reset, snapshot isolation, registry mirroring."""

import pytest

from repro.obs.metrics import REGISTRY
from repro.service.metrics import LatencyHistogram, ServiceMetrics


def _populate(m: ServiceMetrics) -> None:
    m.record_hit(0.001)
    m.record_solve(0.2, warm=False, iterations=10, ok=True)
    m.record_solve(0.05, warm=True, iterations=2, ok=True)
    m.record_solve(0.5, warm=False, iterations=0, ok=False)
    m.record_timeout()
    m.record_overload()


def test_reset_zeroes_every_counter_and_histogram():
    m = ServiceMetrics()
    _populate(m)
    assert m.requests and m.overloads and m.timeouts
    m.reset()
    assert m.requests == 0
    assert m.cache_hits == 0
    assert m.cold_solves == 0 and m.warm_solves == 0
    assert m.solve_errors == 0
    assert m.timeouts == 0 and m.overloads == 0
    assert m.cold_iterations == 0 and m.warm_iterations == 0
    assert m.request_latency.total == 0
    assert m.request_latency.sum == 0.0
    assert all(c == 0 for c in m.request_latency.counts)
    # The instance is fully reusable after reset.
    m.record_hit(0.002)
    assert m.requests == 1 and m.hit_rate == 1.0


def test_latency_histogram_reset_keeps_bucket_layout():
    h = LatencyHistogram()
    h.observe(0.3)
    h.observe(100.0)  # overflow bucket
    h.reset()
    assert h.total == 0 and h.sum == 0.0
    assert len(h.counts) == len(h.buckets) + 1
    h.observe(0.3)
    assert h.total == 1


def test_snapshot_is_isolated_from_later_mutation():
    m = ServiceMetrics()
    _populate(m)
    snap = m.snapshot()
    # Mutating the snapshot (or its nested dicts) must not touch the live
    # metrics, and later recording must not rewrite an older snapshot.
    snap["requests"] = 999
    snap["latency"]["buckets"]["0.25"] = 12345
    before = dict(snap["latency"])
    m.record_hit(0.2)
    assert m.requests == 5
    assert m.snapshot()["requests"] == 5
    assert snap["latency"] == before


def test_snapshot_values():
    m = ServiceMetrics()
    _populate(m)
    snap = m.snapshot()
    assert snap["requests"] == 4
    assert snap["cache_hits"] == 1
    assert snap["cache_misses"] == 2  # the failed solve is not a miss pair
    assert snap["solve_errors"] == 1
    assert snap["timeouts"] == 1 and snap["overloads"] == 1
    assert snap["warm_start_speedup"] == pytest.approx(5.0)


def test_registry_mirror_tracks_outcomes():
    counter = REGISTRY.counter("service_requests_total")
    hist = REGISTRY.histogram("service_request_seconds")
    before = {
        outcome: counter.value(outcome=outcome)
        for outcome in ("hit", "cold", "warm", "error")
    }
    observations = hist.count()
    m = ServiceMetrics()
    _populate(m)
    assert counter.value(outcome="hit") == before["hit"] + 1
    assert counter.value(outcome="cold") == before["cold"] + 1
    assert counter.value(outcome="warm") == before["warm"] + 1
    assert counter.value(outcome="error") == before["error"] + 1
    assert hist.count() == observations + 4
    # reset() is per-instance; the process-wide mirror keeps accumulating.
    m.reset()
    assert counter.value(outcome="hit") == before["hit"] + 1


def test_registry_mirror_tracks_timeouts_overloads_batches():
    # The batch counters went with the batch executor: a whole-batch
    # refusal is an overload, batch dedup is the tier's coalesce.riders.
    names = ("service_timeouts_total", "service_overloads_total")
    before = {n: REGISTRY.counter(n).value() for n in names}
    m = ServiceMetrics()
    _populate(m)
    assert REGISTRY.counter("service_timeouts_total").value() == before[
        "service_timeouts_total"
    ] + 1
    assert REGISTRY.counter("service_overloads_total").value() == before[
        "service_overloads_total"
    ] + 1
