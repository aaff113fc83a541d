"""Tests for the exporters: JSONL traces, Prometheus text, ASCII renderings."""

from repro.obs.export import (
    assemble_trace,
    parse_prometheus,
    parse_trace_jsonl,
    prometheus_exposition,
    render_flamegraph,
    render_timeline,
    trace_to_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span, trace_event


def registry_samples(registry: MetricsRegistry) -> dict:
    """The registry's samples in the shape :func:`parse_prometheus` returns."""
    out: dict = {}
    for metric in registry:
        for name, key, value in metric.samples():
            out.setdefault(name, {})[tuple(key)] = value
    return out


def _populated_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("solve_total", "solves by tier").inc(3, tier="oa")
    r.counter("solve_total").inc(1, tier="nlpbb")
    r.gauge("cache_size", "entries").set(17)
    h = r.histogram("wall_seconds", "per-solve wall", buckets=(0.1, 1.0))
    h.observe(0.05, status="optimal")
    h.observe(2.0, status="optimal")
    return r


def test_prometheus_round_trip():
    r = _populated_registry()
    text = prometheus_exposition(r)
    assert "# TYPE solve_total counter" in text
    assert "# HELP solve_total solves by tier" in text
    assert parse_prometheus(text) == registry_samples(r)


def test_prometheus_escapes_label_values():
    r = MetricsRegistry()
    r.counter("errs_total").inc(1, reason='bad "input"\nline\\two')
    text = prometheus_exposition(r)
    assert parse_prometheus(text) == registry_samples(r)


def test_empty_registry_exposes_empty_text():
    assert prometheus_exposition(MetricsRegistry()) == ""
    assert parse_prometheus("") == {}


def test_labeled_histogram_buckets_round_trip():
    r = MetricsRegistry()
    h = r.histogram("lat_seconds", "latency", buckets=(0.01, 0.1, 1.0))
    for v, priority in ((0.005, "interactive"), (0.5, "batch"), (5.0, "batch")):
        h.observe(v, priority=priority)
    text = prometheus_exposition(r)
    parsed = parse_prometheus(text)
    assert parsed == registry_samples(r)
    batch_inf = (("priority", "batch"), ("le", "+Inf"))
    assert parsed["lat_seconds_bucket"][batch_inf] == 2.0


def test_exemplar_trailers_expose_and_parse():
    r = MetricsRegistry()
    h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05, exemplar="1a2b-3c")
    h.observe(7.0, exemplar="dd-ee")
    text = prometheus_exposition(r)
    # OpenMetrics-style trailers on the bucket lines, latest exemplar wins.
    assert '# {trace_id="1a2b-3c"} 0.05' in text
    assert '# {trace_id="dd-ee"} 7' in text
    # The parser ignores trailers: samples match the un-exemplared view.
    assert parse_prometheus(text) == registry_samples(r)


def test_exemplars_reset_with_the_registry():
    r = MetricsRegistry()
    h = r.histogram("lat_seconds", "latency", buckets=(0.1,))
    h.observe(0.05, exemplar="gone")
    r.reset()
    h.observe(0.05)
    assert "gone" not in prometheus_exposition(r)


def test_assemble_trace_rebuilds_nested_trees(tracer):
    with span("req-a"):
        with span("solve"):
            pass
    with span("req-b"):
        pass
    records = parse_trace_jsonl(trace_to_jsonl(tracer))
    a_id = records[0]["trace_id"]
    roots = assemble_trace(records)
    assert [r.name for r in roots] == ["req-a", "req-b"]
    assert [c.name for c in roots[0].children] == ["solve"]
    assert roots[0].children[0].parent_id == roots[0].span_id
    only_a = assemble_trace(records, a_id)
    assert [r.name for r in only_a] == ["req-a"]
    assert {s.name for s, _ in only_a[0].walk()} == {"req-a", "solve"}


def test_assemble_trace_promotes_orphans_to_roots():
    records = [
        {
            "name": "stray",
            "trace_id": "t",
            "span_id": "s-2",
            "parent_id": "s-missing",
            "start": 0.0,
            "duration": 0.1,
        }
    ]
    (root,) = assemble_trace(records)
    assert root.name == "stray" and root.duration == 0.1


def test_trace_jsonl_round_trip(tracer):
    with span("root", run=1):
        with span("stage-a"):
            trace_event("tick", i=7)
        with span("stage-b"):
            pass
    records = parse_trace_jsonl(trace_to_jsonl(tracer))
    assert [r["path"] for r in records] == [
        "root",
        "root/stage-a",
        "root/stage-b",
    ]
    assert records[0]["depth"] == 0 and records[1]["depth"] == 1
    assert records[0]["tags"] == {"run": 1}
    assert records[1]["events"][0]["name"] == "tick"
    assert records[1]["events"][0]["i"] == 7
    assert all(r["duration"] >= 0.0 for r in records)


def test_trace_jsonl_empty_trace(tracer):
    assert trace_to_jsonl(tracer) == ""
    assert parse_trace_jsonl("") == []


def test_write_jsonl_counts_lines(tracer, tmp_path):
    with span("a"):
        with span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(str(path)) == 2
    assert len(parse_trace_jsonl(path.read_text())) == 2


def test_flamegraph_renders_every_span(tracer):
    with span("pipeline"):
        with span("gather"):
            trace_event("retry", nodes=32)
        with span("solve"):
            pass
    art = render_flamegraph(tracer)
    for name in ("pipeline", "gather", "solve"):
        assert name in art
    assert "ms" in art
    assert "+1ev" in art  # the gather retry event is flagged
    # Children are indented under their parent.
    lines = art.splitlines()
    assert lines[0].startswith("pipeline")
    assert lines[1].startswith("  gather")


def test_timeline_renders_segments(tracer):
    with span("outer"):
        with span("inner"):
            pass
    art = render_timeline(tracer)
    assert "outer" in art and "inner" in art
    assert "[" in art and "]" in art


def test_renderings_handle_empty_trace(tracer):
    assert render_flamegraph(tracer) == "(empty trace)"
    assert render_timeline(tracer) == "(empty trace)"
