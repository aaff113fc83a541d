"""Tests for the span tracer: nesting, tags, events, and the disabled path."""

import threading

import pytest

from repro.obs.trace import NULL_SPAN, get_tracer, span, trace_event


def test_disabled_span_is_the_shared_null_object():
    t = get_tracer()
    assert not t.enabled
    assert span("anything", key="value") is NULL_SPAN
    # The null span supports the full protocol without recording anything.
    with span("nothing") as sp:
        sp.set_tag("k", 1).event("e", x=2)
    trace_event("dropped", n=3)
    assert t.roots == []


def test_span_nesting_builds_a_tree(tracer):
    with span("root", kind="test"):
        with span("child-a"):
            with span("leaf"):
                pass
        with span("child-b"):
            pass
    [root] = tracer.roots
    assert root.name == "root"
    assert root.tags == {"kind": "test"}
    assert [c.name for c in root.children] == ["child-a", "child-b"]
    assert [c.name for c in root.children[0].children] == ["leaf"]
    names = [(s.name, d) for s, d in tracer.walk()]
    assert names == [("root", 0), ("child-a", 1), ("leaf", 2), ("child-b", 1)]


def test_span_durations_nest(tracer):
    with span("outer"):
        with span("inner"):
            pass
    [outer] = tracer.roots
    [inner] = outer.children
    assert outer.end is not None and inner.end is not None
    assert outer.start <= inner.start
    assert inner.end <= outer.end
    assert outer.duration >= inner.duration >= 0.0


def test_events_attach_to_innermost_open_span(tracer):
    with span("outer"):
        trace_event("on-outer", n=1)
        with span("inner"):
            trace_event("on-inner", n=2)
    [outer] = tracer.roots
    assert [e["name"] for e in outer.events] == ["on-outer"]
    assert outer.events[0]["n"] == 1
    [inner] = outer.children
    assert [e["name"] for e in inner.events] == ["on-inner"]
    # Event timestamps are relative to their span's start.
    assert inner.events[0]["at"] >= 0.0


def test_event_outside_any_span_becomes_a_root_blip(tracer):
    trace_event("orphan", reason="no open span")
    [blip] = tracer.roots
    assert blip.name == "orphan"
    assert blip.duration == 0.0
    assert blip.events[0]["reason"] == "no open span"


def test_exception_in_span_is_tagged_and_propagates(tracer):
    with pytest.raises(ValueError, match="boom"):
        with span("failing"):
            raise ValueError("boom")
    [sp] = tracer.roots
    assert sp.tags["error"] == "ValueError: boom"
    assert sp.end is not None  # the span still closed


def test_find_and_set_tag(tracer):
    with span("pipeline") as sp:
        sp.set_tag("answer", 42)
        with span("stage"):
            pass
    assert tracer.find("stage") is not None
    assert tracer.find("pipeline").tags["answer"] == 42
    assert tracer.find("missing") is None


def test_reset_drops_spans_but_keeps_enabled(tracer):
    with span("before"):
        pass
    tracer.reset()
    assert tracer.roots == []
    assert tracer.enabled
    with span("after"):
        pass
    assert [r.name for r in tracer.roots] == ["after"]


def test_threads_get_independent_span_stacks(tracer):
    done = threading.Event()

    def worker():
        with span("worker-root"):
            done.wait(timeout=5)

    thread = threading.Thread(target=worker)
    with span("main-root"):
        thread.start()
        # The worker's open span must not become our child.
        with span("main-child"):
            pass
    done.set()
    thread.join()
    names = {r.name for r in tracer.roots}
    assert names == {"main-root", "worker-root"}
    main_root = next(r for r in tracer.roots if r.name == "main-root")
    assert [c.name for c in main_root.children] == ["main-child"]


def test_to_dicts_shape(tracer):
    with span("root", layer="cli"):
        trace_event("tick", i=0)
    [doc] = [root.to_dict() for root in tracer.roots]
    assert doc["name"] == "root"
    assert doc["tags"] == {"layer": "cli"}
    assert doc["events"][0]["name"] == "tick"
    assert doc["children"] == []
    assert doc["duration"] >= 0.0
