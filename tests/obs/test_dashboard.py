"""The `hslb top` dashboard: pure rendering plus the refresh loop."""

import pytest

from repro.obs.dashboard import fetch_url, render_dashboard, top
from repro.obs.export import parse_prometheus, prometheus_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker


def _exposition() -> str:
    registry = MetricsRegistry()
    slo = SLOTracker()
    for i in range(20):
        slo.record("interactive", 0.001 * (i + 1))
    slo.record("batch", None, outcome="shed")
    slo.export(registry)
    registry.counter("tier_requests_total", "requests").inc(21)
    hist = registry.histogram("tier_latency_seconds", "latency")
    hist.observe(0.01)
    hist.observe(0.2)
    return prometheus_exposition(registry)


def test_dashboard_renders_every_panel():
    art = render_dashboard(parse_prometheus(_exposition()))
    assert art.startswith("hslb top")
    assert "SLO burn & rolling-window latency" in art
    assert "interactive" in art and "batch" in art
    assert "availability" in art  # burn bars for the default targets
    assert "Latency histograms" in art
    assert "tier_latency_seconds" in art
    assert "Counters & gauges" in art
    assert "tier_requests_total" in art


def test_dashboard_handles_no_samples():
    assert "(no samples)" in render_dashboard({})


def test_top_paints_and_sleeps_between_frames():
    frames: list[str] = []
    naps: list[float] = []
    painted = top(
        _exposition,
        interval=0.5,
        iterations=3,
        write=frames.append,
        sleep=naps.append,
    )
    assert painted == 3
    assert len(frames) == 3
    assert naps == [0.5, 0.5]  # no sleep after the final frame
    assert all(f.startswith("\x1b[2J\x1b[H") for f in frames)
    assert "hslb top" in frames[0]


def test_top_reports_fetch_failure_and_stops():
    frames: list[str] = []

    def flaky(calls=iter([_exposition()])):
        try:
            return next(calls)
        except StopIteration:
            raise OSError("connection refused") from None

    painted = top(flaky, iterations=5, write=frames.append, sleep=lambda _: None)
    assert painted == 1
    assert "fetch failed" in frames[-1]


def test_fetch_url_refuses_unreachable_port():
    with pytest.raises(OSError):
        fetch_url("http://127.0.0.1:1/metrics", timeout=0.2)


def test_prediction_error_is_a_panel_of_its_own():
    """One row per (layout, component), the makespan last in each layout,
    between the latency and traffic panels; the traffic panel reads as it
    always did (its gauge row is the sum over label sets)."""
    registry = MetricsRegistry()
    registry.counter("tier_requests_total", "requests").inc(5)
    gauge = registry.gauge("hslb_prediction_error", "error")
    for layout, component, error in (
        ("hybrid", "total", 0.0125), ("hybrid", "ocn", 0.25),
        ("dynlb", "frag1", 0.5), ("hybrid", "atm", 0.0),
    ):
        gauge.set(error, component=component, layout=layout)
    art = render_dashboard(parse_prometheus(prometheus_exposition(registry)))
    assert art == "\n".join([
        "hslb top",
        "=" * 78,
        "Prediction error |predicted - actual| / actual",
        "  dynlb                  frag1          50.000%",
        "  hybrid                 atm             0.000%",
        "  hybrid                 ocn            25.000%",
        "  hybrid                 total           1.250%",
        "Counters & gauges",
        "  hslb_prediction_error                          0.7625",
        "  tier_requests_total                                 5",
    ])
