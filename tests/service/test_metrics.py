"""Tests for ServiceMetrics: a view over one scope of the obs registry."""

import sys
import threading

import pytest

from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.service.metrics import ServiceMetrics


def _populate(m: ServiceMetrics) -> None:
    m.record_hit(0.001)
    m.record_solve(0.2, iterations=10, ok=True)
    m.record_solve(0.05, iterations=2, ok=True)
    m.record_solve(0.5, iterations=0, ok=False)
    m.count("retries")
    m.count("overloads")


def test_reset_zeroes_every_counter_and_histogram():
    m = ServiceMetrics()
    _populate(m)
    assert m.requests and m.overloads and m.retries
    m.reset()
    assert m.requests == 0
    assert m.cache_hits == 0
    assert m.cold_solves == 0
    assert m.solve_errors == 0
    assert m.retries == 0 and m.overloads == 0
    assert m.cold_iterations == 0
    assert m.request_latency.count() == 0
    assert m.request_latency.sum() == 0.0
    assert m.request_latency.summary()["buckets"] == {}
    # The instance is fully reusable after reset.
    m.record_hit(0.002)
    assert m.requests == 1 and m.hit_rate == 1.0


def test_latency_histogram_reset_keeps_bucket_layout():
    h = Histogram("h")
    h.observe(0.3)
    h.observe(100.0)  # overflow bucket
    layout = h.buckets
    h.reset()
    assert h.count() == 0 and h.sum() == 0.0
    assert h.buckets == layout
    h.observe(0.3)
    assert h.count() == 1
    assert h.summary()["buckets"] == {"0.5": 1}


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
    assert snap["retries"] == 1 and snap["overloads"] == 1
    assert snap["cold_solves"] == 2 and snap["cold_iterations"] == 12
    assert snap["warm_solves"] == 0  # a literal: nothing warm-starts
    # Counter values are floats; everything a snapshot counts is an int.
    derived = ("hit_rate", "latency", "resilience")
    counts = {k: v for k, v in snap.items() if k not in derived}
    assert all(type(v) is int for v in counts.values()), counts
    assert all(type(v) is int for v in snap["resilience"].values())
    assert "cold_latency" not in snap and "warm_latency" not in snap


def test_the_view_stores_nothing_itself():
    """No field mirror, no booking lock: every number is a registry series."""
    m = ServiceMetrics(parent=None)
    _populate(m)
    assert not any(
        isinstance(v, (int, float, type(threading.Lock())))
        for v in vars(m).values()
    )
    assert m.requests == sum(
        v for _, _, v in m.registry.get("service_requests_total").samples()
    )
    assert m.cold_iterations == m.registry.get("service_solve_iterations_total").value()
    with pytest.raises(AttributeError):
        m.no_such_count


def test_registry_mirror_tracks_outcomes():
    counter = REGISTRY.counter("service_requests_total")
    hist = REGISTRY.histogram("service_request_seconds")
    before = {
        outcome: counter.value(outcome=outcome)
        for outcome in ("hit", "cold", "error")
    }
    observations = hist.count()
    m = ServiceMetrics()
    _populate(m)
    assert counter.value(outcome="hit") == before["hit"] + 1
    assert counter.value(outcome="cold") == before["cold"] + 2
    assert counter.value(outcome="error") == before["error"] + 1
    assert hist.count() == observations + 4
    # reset() is per-instance; the process-wide registry keeps accumulating.
    m.reset()
    assert counter.value(outcome="hit") == before["hit"] + 1


def test_registry_mirror_tracks_retries_and_overloads():
    # The batch counters went with the batch executor: a whole-batch
    # refusal is an overload, batch dedup is the tier's coalesce.riders.
    names = ("service_retries_total", "service_overloads_total")
    before = {n: REGISTRY.counter(n).value() for n in names}
    m = ServiceMetrics()
    _populate(m)
    assert REGISTRY.counter("service_retries_total").value() == before[
        "service_retries_total"
    ] + 1
    assert REGISTRY.counter("service_overloads_total").value() == before[
        "service_overloads_total"
    ] + 1


def test_a_shard_view_is_its_tiers_total_and_the_scrape():
    process = MetricsRegistry()
    tier = ServiceMetrics(parent=process)
    shards = [ServiceMetrics(parent=tier.registry) for _ in range(2)]
    _populate(shards[0])
    shards[1].record_hit(0.01)
    shards[1].count("worker_hangs")
    tier.count("overloads")  # booked by the tier itself, on no shard
    assert tier.requests == 5 and tier.cache_hits == 2
    assert tier.worker_hangs == 1 and tier.overloads == 2
    assert [s.overloads for s in shards] == [1, 0]
    assert process.counter("service_requests_total").total() == 5
    assert process.histogram("service_request_seconds").count() == 5
    assert tier.request_latency.count() == 5
    assert process.counter("service_worker_failures_total").value(kind="hang") == 1
    assert REGISTRY.counter("service_requests_total") is not (
        process.counter("service_requests_total")
    )


def test_readers_and_two_writers_keep_the_ledger():
    """One thread books hits while another books solves and something
    scrapes: no read may raise, no write may be lost."""
    m = ServiceMetrics(parent=MetricsRegistry())
    rounds, errors, done = 4000, [], threading.Event()

    def hits():
        for _ in range(rounds):
            m.record_hit(1e-4)

    def solves():
        for i in range(rounds):
            if i % 7 == 0:
                m.record_degraded("greedy", 1e-3)
            else:
                m.record_solve(1e-2, iterations=3, ok=True)

    def reader():
        try:
            seen = 0
            while not done.is_set():
                # Two series read at two instants may tear against each
                # other; one total read twice may only grow.
                requests = m.snapshot()["requests"]
                assert requests >= seen
                seen = requests
                list(m.registry.parent.snapshot())
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=f) for f in (hits, solves, reader, reader)
        ]
        for t in threads:
            t.start()
        for t in threads[:2]:
            t.join(timeout=60)
        done.set()
        for t in threads[2:]:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert m.requests == 2 * rounds == m.request_latency.count()
    assert m.requests == (
        m.cache_hits + m.cold_solves + m.degraded_greedy
    )
    parent = m.registry.parent
    assert parent.counter("service_requests_total").total() == 2 * rounds
    assert parent.histogram("service_request_seconds").count() == 2 * rounds
