"""SLO tracker: rolling windows, quantiles, burn rates, gauge export."""

import pytest

from repro.obs.export import prometheus_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BUCKET_SAMPLE_CAP,
    DEFAULT_TARGETS,
    SLOTarget,
    SLOTracker,
)


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def tracker(clock, **kwargs) -> SLOTracker:
    kwargs.setdefault("window", 60.0)
    kwargs.setdefault("buckets", 12)
    return SLOTracker(clock=clock, **kwargs)


def test_target_validation():
    with pytest.raises(ValueError):
        SLOTarget("bad", objective=1.0)
    with pytest.raises(ValueError):
        SLOTarget("bad", latency=0.0)
    with pytest.raises(ValueError):
        SLOTracker(window=0.0)
    with pytest.raises(ValueError):
        SLOTracker((SLOTarget("dup"), SLOTarget("dup")))
    with pytest.raises(ValueError):
        SLOTracker(clock=FakeClock()).record("batch", 0.1, outcome="exploded")


def test_per_priority_quantiles_and_rates():
    clock = FakeClock()
    slo = tracker(clock)
    for i in range(100):
        slo.record("interactive", 0.001 * (i + 1))
    slo.record("interactive", None, outcome="shed")
    slo.record("batch", 0.5, outcome="degraded")
    snap = slo.snapshot()
    inter = snap["priorities"]["interactive"]
    assert inter["total"] == 101
    assert inter["p50"] == pytest.approx(0.0505, rel=0.02)
    assert inter["p99"] == pytest.approx(0.100, rel=0.02)
    assert inter["shed_rate"] == pytest.approx(1 / 101)
    assert snap["priorities"]["batch"]["degraded_rate"] == 1.0


def test_outcomes_age_out_of_the_window():
    clock = FakeClock()
    slo = tracker(clock)
    slo.record("batch", None, outcome="error")
    clock.advance(30.0)
    assert slo.snapshot()["priorities"]["batch"]["error_rate"] == 1.0
    clock.advance(31.0)  # past the 60 s window: the error is history
    assert "batch" not in slo.snapshot()["priorities"]


def test_latency_burn_rate():
    clock = FakeClock()
    target = SLOTarget("fast", objective=0.9, priority="interactive", latency=0.1)
    slo = tracker(clock, targets=(target,))
    for _ in range(8):
        slo.record("interactive", 0.01)
    slo.record("interactive", 0.5)  # slow: burns budget
    slo.record("interactive", None, outcome="error")  # failures burn too
    stats = slo.snapshot()["targets"]["fast"]
    # 2 bad of 10 against a 10% budget: burning at exactly 2x accrual.
    assert stats["bad"] == 2 and stats["total"] == 10
    assert stats["burn_rate"] == pytest.approx(2.0)
    assert not stats["healthy"]


def test_availability_target_spans_all_priorities():
    clock = FakeClock()
    target = SLOTarget("avail", objective=0.5)
    slo = tracker(clock, targets=(target,))
    slo.record("interactive", 0.01)
    slo.record("batch", None, outcome="shed")
    stats = slo.snapshot()["targets"]["avail"]
    assert stats["total"] == 2 and stats["bad"] == 1
    assert stats["burn_rate"] == pytest.approx(1.0)
    assert stats["healthy"]  # burn == 1.0 is exactly at budget


def test_empty_window_reports_zero_burn():
    slo = tracker(FakeClock())
    snap = slo.snapshot()
    assert snap["priorities"] == {}
    for stats in snap["targets"].values():
        assert stats["burn_rate"] == 0.0 and stats["healthy"]


def test_bucket_sample_cap_bounds_memory():
    clock = FakeClock()
    slo = tracker(clock, window=60.0, buckets=1)
    for _ in range(BUCKET_SAMPLE_CAP + 100):
        slo.record("batch", 0.01)
    ring = slo._rings["batch"]
    assert len(ring[0].latencies) == BUCKET_SAMPLE_CAP
    # Counts keep the true total even after sampling saturates.
    assert slo.snapshot()["priorities"]["batch"]["total"] == BUCKET_SAMPLE_CAP + 100


def test_export_publishes_slo_gauges():
    clock = FakeClock()
    slo = tracker(clock)
    slo.record("interactive", 0.02)
    slo.record("interactive", None, outcome="shed")
    registry = MetricsRegistry()
    slo.export(registry)
    text = prometheus_exposition(registry)
    assert 'slo_latency_seconds{priority="interactive",quantile="p99"}' in text
    assert 'slo_outcome_rate{kind="shed",priority="interactive"} 0.5' in text
    assert 'slo_burn_rate{target="availability"}' in text
    assert 'slo_window_requests{priority="interactive"} 2' in text


def test_aged_out_classes_leave_the_exported_gauges():
    # Once the window has emptied, the scrape must not go on showing the
    # last values (it read 10 requests / p99 0.4 s forever).
    clock = FakeClock()
    slo = tracker(clock)
    for _ in range(10):
        slo.record("interactive", 0.4)
    registry = MetricsRegistry()
    slo.export(registry)
    requests = registry.gauge("slo_window_requests")
    latency = registry.gauge("slo_latency_seconds")
    assert requests.value(priority="interactive") == 10
    assert latency.value(priority="interactive", quantile="p99") == 0.4
    assert registry.gauge("slo_burn_rate").value(target="interactive_latency") > 1
    clock.advance(1000.0)
    assert slo.snapshot()["priorities"] == {}
    slo.export(registry)
    assert requests.value(priority="interactive") == 0
    assert latency.value(priority="interactive", quantile="p99") == 0
    assert registry.gauge("slo_outcome_rate").value(
        priority="interactive", kind="shed"
    ) == 0
    text = prometheus_exposition(registry)
    assert 'priority="interactive"' not in text
    # Targets are standing promises: their burn gauges stay, at zero.
    assert 'slo_burn_rate{target="interactive_latency"} 0' in text


def test_render_flags_burning_targets():
    clock = FakeClock()
    slo = tracker(clock)
    assert slo.targets == DEFAULT_TARGETS
    for _ in range(10):
        slo.record("interactive", 5.0)  # way past the 250 ms threshold
    art = slo.render()
    assert "interactive" in art
    assert "BURNING" in art
