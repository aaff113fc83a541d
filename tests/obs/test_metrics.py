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


def test_default_buckets_match_service_latency_buckets():
    # One bucket table and one pair of quantile routines, shared.
    from repro.service.metrics import LatencyHistogram

    assert LatencyHistogram().buckets == DEFAULT_BUCKETS
    mine, theirs = Histogram("h"), LatencyHistogram()
    for v in (0.0004, 0.003, 0.02, 0.02, 0.7, 4.0):
        mine.observe(v)
        theirs.observe(v)
    for q in (0.0, 0.5, 0.95, 1.0):
        assert mine.quantile(q) == theirs.quantile(q)
