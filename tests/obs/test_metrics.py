"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry


def test_counter_basics():
    r = MetricsRegistry()
    c = r.counter("requests_total", "requests served")
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labels_are_order_insensitive():
    r = MetricsRegistry()
    c = r.counter("ops_total")
    c.inc(1, kind="read", zone="a")
    c.inc(2, zone="a", kind="read")  # same series, different kwarg order
    c.inc(5, kind="write", zone="a")
    assert c.value(kind="read", zone="a") == 3
    assert c.value(zone="a", kind="read") == 3
    assert c.value(kind="write", zone="a") == 5
    assert c.value(kind="missing") == 0


def test_gauge_set_and_inc():
    r = MetricsRegistry()
    g = r.gauge("queue_depth")
    g.set(10)
    g.inc(-3)
    assert g.value() == 7


def test_histogram_buckets_and_summaries():
    r = MetricsRegistry()
    h = r.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 4
    assert h.sum() == pytest.approx(55.55)
    samples = dict(((n, k), v) for n, k, v in h.samples())
    assert samples[("latency_seconds_bucket", (("le", "0.1"),))] == 1
    assert samples[("latency_seconds_bucket", (("le", "1.0"),))] == 2
    assert samples[("latency_seconds_bucket", (("le", "10.0"),))] == 3
    assert samples[("latency_seconds_bucket", (("le", "+Inf"),))] == 4
    assert samples[("latency_seconds_count", ())] == 4


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(1.0, 0.5))


def test_registry_get_or_create_and_type_conflict():
    r = MetricsRegistry()
    assert r.counter("x_total") is r.counter("x_total")
    with pytest.raises(TypeError, match="already registered"):
        r.gauge("x_total")
    assert "x_total" in r
    assert r.get("x_total") is not None
    assert r.get("nope") is None


def test_bad_metric_names_rejected():
    for bad in ("", "9starts_with_digit", "has space", "has-dash"):
        with pytest.raises(ValueError):
            Counter(bad)


def test_registry_iterates_sorted_and_snapshots():
    r = MetricsRegistry()
    r.counter("b_total").inc(2)
    r.counter("a_total").inc(1, kind="x")
    assert [m.name for m in r] == ["a_total", "b_total"]
    snap = r.snapshot()
    assert snap["a_total"] == {"kind=x": 1.0}
    assert snap["b_total"] == {"": 2.0}


def test_registry_reset_zeroes_but_keeps_families():
    r = MetricsRegistry()
    r.counter("c_total").inc(5)
    r.gauge("g").set(3)
    r.histogram("h").observe(0.2)
    r.reset()
    assert "c_total" in r and "g" in r and "h" in r
    assert r.counter("c_total").value() == 0
    assert r.gauge("g").value() == 0
    assert r.histogram("h").count() == 0


def _spread(n):
    """Deterministic latencies covering every bucket, overflow included."""
    return [1e-4 * (1.0 + (i * 7919) % 1000) ** 1.9 / 10 for i in range(n)]


def test_default_buckets_match_service_latency_buckets():
    # The service's own histogram class is gone; these literals are what its
    # ``snapshot()`` returned for the same samples, below the sample cap
    # (exact order statistics) and above it (bucket interpolation).
    below, above = Histogram("below"), Histogram("above")
    for v in _spread(500):
        below.observe(v)
    for v in _spread(3000):
        above.observe(v)
    assert below.summary() == {
        "count": 500,
        "sum": 868.5340671817358,
        "mean": 1.7370681343634717,
        "p50": 1.360825058538282,
        "p95": 4.546930309933526,
        "p99": 4.888897748617624,
        "p999": 4.997636314325166,
        "buckets": {
            "0.0005": 5, "0.001": 2, "0.0025": 3, "0.005": 3, "0.01": 7,
            "0.025": 11, "0.05": 14, "0.1": 19, "0.25": 40, "0.5": 43,
            "1.0": 65, "2.5": 134, "5.0": 153, "10.0": 1,
        },
    }
    assert above.summary() == {
        "count": 3000,
        "sum": 5192.215709324259,
        "mean": 1.7307385697747528,
        "p50": 1.4075471698113207,
        "p95": 4.60655737704918,
        "p99": 4.934426229508197,
        "p999": 7.5,
        "buckets": {
            "0.0005": 21, "0.001": 12, "0.0025": 21, "0.005": 24, "0.01": 33,
            "0.025": 72, "0.05": 81, "0.1": 117, "0.25": 237, "0.5": 273,
            "1.0": 393, "2.5": 795, "5.0": 915, "10.0": 6,
        },
    }
    assert above.sum() / above.count() == above.summary()["mean"]
    # The overflow bucket is counted but never listed, as before.
    small = Histogram("small")
    for v in (0.0004, 0.003, 0.02, 0.02, 0.7, 4.0, 100.0):
        small.observe(v)
    assert [small.quantile(q) for q in (0.0, 0.5, 0.95, 1.0)] == [
        0.0004, 0.02, 71.19999999999993, 100.0,
    ]
    assert small.summary()["buckets"] == {
        "0.0005": 1, "0.005": 1, "0.025": 2, "1.0": 1, "5.0": 1,
    }
    assert Histogram("idle").summary()["count"] == 0
    assert small.buckets == DEFAULT_BUCKETS


# -- scopes -------------------------------------------------------------------


def _chain():
    process = MetricsRegistry()
    tier = MetricsRegistry(parent=process)
    shard = MetricsRegistry(parent=tier)
    return process, tier, shard


def test_scope_forwards_counters_and_histograms_through_two_levels():
    process, tier, shard = _chain()
    hit = shard.counter("requests_total", "requests").bind(outcome="hit")
    hit.inc()
    shard.counter("requests_total").inc(2, outcome="cold")
    tier.counter("requests_total").inc(outcome="hit")  # the tier's own booking
    shard.histogram("seconds").observe(0.3, exemplar="trace-1", route="a")
    assert hit.value() == 1
    assert shard.counter("requests_total").total() == 3
    assert tier.counter("requests_total").value(outcome="hit") == 2
    assert process.counter("requests_total").value(outcome="hit") == 2
    assert process.counter("requests_total").value(outcome="cold") == 2
    assert process.counter("requests_total").help == "requests"
    for level in (shard, tier, process):
        h = level.histogram("seconds")
        assert h.count(route="a") == 1 and h.sum(route="a") == 0.3
        assert h.count() == 0  # only the labelled series exists
        assert list(h.exemplars()) == [((("route", "a"),), "0.5", "trace-1", 0.3)]
    with pytest.raises(ValueError):
        hit.inc(-1)


def test_gauges_are_not_scoped():
    process, tier, _ = _chain()
    tier.gauge("depth").set(4)
    assert tier.gauge("depth").value() == 4
    assert "depth" not in process


def test_scope_reset_is_isolated():
    process, tier, shard = _chain()
    shard.counter("c_total").inc(3)
    shard.histogram("h").observe(0.1)
    shard.reset()
    assert shard.counter("c_total").value() == 0
    assert shard.histogram("h").count() == 0
    # Enclosing registries keep what was forwarded, and keep accumulating.
    shard.counter("c_total").inc()
    assert tier.counter("c_total").value() == process.counter("c_total").value() == 4
    assert process.histogram("h").count() == 1


def test_sibling_scopes_do_not_see_each_other():
    process = MetricsRegistry()
    first, second = MetricsRegistry(parent=process), MetricsRegistry(parent=process)
    first.counter("c_total").inc()
    second.counter("c_total").inc(5)
    second.histogram("h").observe(1.0)
    assert first.counter("c_total").value() == 1
    assert second.counter("c_total").value() == 5
    assert "h" not in first
    assert process.counter("c_total").value() == 6


def test_scoped_histogram_must_share_its_enclosing_buckets():
    process = MetricsRegistry()
    process.histogram("h", buckets=(1.0, 2.0))
    with pytest.raises(ValueError, match="buckets"):
        MetricsRegistry(parent=process).histogram("h")
    with pytest.raises(TypeError, match="already registered"):
        MetricsRegistry(parent=process).counter("h")


def test_forked_child_writes_through_a_scope_locked_at_fork():
    """A pool worker is forked while a shard thread may be mid-``inc``."""
    import os
    import signal

    process, _, shard = _chain()
    counter = shard.counter("c_total")
    locks = [counter._lock, counter._parent._lock, shard._lock, process._lock]
    for lock in locks:
        lock.acquire()  # "another thread" holds every lock of the chain
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: its first metric call must not block
        os.close(read_end)
        status = b"x"
        try:
            signal.alarm(10)  # a deadlock kills the child instead of hanging
            counter.inc()
            shard.counter("late_total").inc()
            if process.counter("c_total").value() == 1:
                status = b"k"
        finally:
            os.write(write_end, status)
            os._exit(0)
    os.close(write_end)
    for lock in locks:
        lock.release()
    try:
        assert os.read(read_end, 1) == b"k"
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    assert process.counter("c_total").value() == 0  # the child's write is its own
