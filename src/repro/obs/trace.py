"""Span-based tracing: nested wall-time spans with tags, events, and ids.

Usage::

    from repro.obs import get_tracer, span

    tracer = get_tracer()
    tracer.enable()
    with span("solve", tier="oa"):
        ...
        trace_event("incumbent", objective=123.4)
    tracer.disable()
    print(tracer.render_flamegraph())

The tracer is a process-wide singleton, **disabled by default**.  Disabled,
``span()`` returns a shared no-op object and ``trace_event()`` is a single
attribute check — instrumentation in solver inner loops must stay no-op
cheap (``benchmarks/bench_obs.py`` pins the bound).

**Context propagation.**  Span stacks live in :mod:`contextvars`, not
thread-locals: every asyncio task gets its own stack (copied at task
creation, so a span opened inside a task nests under whatever span was
open when the task was spawned), every thread still starts fresh, and a
:class:`contextvars.Context` captured with ``copy_context()`` carries the
stack across ``run_in_executor`` hops.  Each span carries a ``trace_id``
(shared by the whole request tree), its own ``span_id``, and its parent's
``parent_id`` — so a request's spans form a real tree even when parts of
it were recorded in another task, thread, or process.

**Cross-process spans.**  A :class:`TraceContext` serializes the current
position in the tree; a worker process passes it to
:func:`run_traced_child`, which records the worker-side spans under that
parent and ships them back as dicts for the parent to graft with
:meth:`Tracer.attach_remote`.

Determinism contract: spans record wall-clock for *reporting only*.  No
caller may branch on span state or timings, and nothing here touches RNG
streams or request fingerprints.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

_ID_COUNTER = itertools.count(1)
_ID_LOCK = threading.Lock()


def _next_id() -> str:
    """A process-unique id: ``<pid hex>-<counter hex>``.

    The pid is read at mint time (not cached) so forked pool workers mint
    ids in their own namespace even though they inherit the counter.
    """
    with _ID_LOCK:
        n = next(_ID_COUNTER)
    return f"{os.getpid():x}-{n:x}"


@dataclass(frozen=True)
class TraceContext:
    """A serializable position in a trace: enough to parent remote spans.

    ``pid`` records the minting process so :func:`run_traced_child` can
    tell a real process hop from an inline executor running in-process
    (where the live tracer already records spans and must not be reset).
    """

    trace_id: str
    span_id: str
    pid: int

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "pid": self.pid}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            pid=int(payload.get("pid", -1)),
        )


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **fields: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed region of the pipeline: name, tags, events, children."""

    __slots__ = (
        "name", "tags", "events", "children", "start", "end",
        "trace_id", "span_id", "parent_id", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, tags: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.events: list[dict[str, Any]] = []
        self.children: list[Span] = []
        self.start = 0.0
        self.end: float | None = None
        self.span_id = _next_id()
        self.trace_id = ""  # assigned at push: inherited or freshly minted
        self.parent_id: str | None = None

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (in-flight spans read as 0)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def event(self, name: str, **fields: Any) -> "Span":
        """Attach a point-in-time event (solver iteration, fault, ...)."""
        self.events.append(
            {"name": name, "at": self._tracer._clock() - self.start, **fields}
        )
        return self

    def context(self) -> TraceContext:
        """This span as a propagatable parent (serialize for workers)."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id, pid=os.getpid()
        )

    def __enter__(self) -> "Span":
        self.start = self._tracer._clock()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type: type | None, exc: BaseException | None, tb: object) -> bool:
        self.end = self._tracer._clock()
        if exc is not None:
            self.tags["error"] = f"{type(exc).__name__}: {exc}"
        self._tracer._pop(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """Nested JSON-ready form (children inline)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "tags": dict(self.tags),
            "events": [dict(e) for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` over the subtree, depth-first, in order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for s, _ in self.walk():
            if s.name == name:
                return s
        return None


class Tracer:
    """Process-wide span collector with context-local span stacks.

    The stack is a :class:`~contextvars.ContextVar` holding an immutable
    tuple, so pushes/pops in one asyncio task (or one ``Context.run``)
    never disturb a sibling task's stack — while the recorded span *tree*
    is shared, concurrent tasks appending children to a common parent.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.roots: list[Span] = []
        self._stack_var: ContextVar[tuple[Span, ...]] = ContextVar(
            "hslb_span_stack", default=()
        )
        self._remote_var: ContextVar[TraceContext | None] = ContextVar(
            "hslb_remote_parent", default=None
        )
        self._lock = threading.Lock()
        self._epoch = 0.0  # perf_counter at enable(); spans are relative

    def _clock(self) -> float:
        return time.perf_counter() - self._epoch

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "Tracer":
        self._epoch = time.perf_counter()
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def reset(self) -> "Tracer":
        """Drop all recorded spans (does not change enabled state).

        Re-minting the context variables is the only way to clear stacks
        captured in *other* contexts (tasks, threads) — stale values held
        there die with the old variable.
        """
        with self._lock:
            self.roots = []
        self._stack_var = ContextVar("hslb_span_stack", default=())
        self._remote_var = ContextVar("hslb_remote_parent", default=None)
        self._epoch = time.perf_counter()
        return self

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **tags: Any) -> Span | _NullSpan:
        """A context manager timing one region; no-op while disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, tags)

    def event(self, name: str, **fields: Any) -> None:
        """Attach a point event to the innermost open span (or a root blip)."""
        if not self.enabled:
            return
        stack = self._stack_var.get()
        if stack:
            stack[-1].event(name, **fields)
            return
        blip = Span(self, name, {})
        blip.start = blip.end = self._clock()
        blip.trace_id = _next_id()
        blip.events.append({"name": name, "at": 0.0, **fields})
        with self._lock:
            self.roots.append(blip)

    def current(self) -> Span | None:
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """The position new child spans would attach to, if any.

        The innermost open span wins; with no open span, an adopted remote
        parent (see :meth:`adopt`) is returned so nested propagation hops
        keep pointing at the original request.
        """
        current = self.current()
        if current is not None:
            return current.context()
        return self._remote_var.get()

    def adopt(self, context: TraceContext | None) -> None:
        """Parent subsequent root spans *in this context* under ``context``.

        Used by worker processes (via :func:`run_traced_child`) and by any
        execution hop that cannot carry the live stack: spans recorded
        afterwards keep the caller's ``trace_id`` and point their
        ``parent_id`` at the serialized span.
        """
        self._remote_var.set(context)

    def _push(self, span: Span) -> None:
        stack = self._stack_var.get()
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            remote = self._remote_var.get()
            if remote is not None:
                span.trace_id = remote.trace_id
                span.parent_id = remote.span_id
            else:
                span.trace_id = _next_id()
            with self._lock:
                self.roots.append(span)
        self._stack_var.set(stack + (span,))

    def _pop(self, span: Span) -> None:
        stack = self._stack_var.get()
        if stack and stack[-1] is span:
            self._stack_var.set(stack[:-1])
        elif span in stack:  # unbalanced exit: recover rather than corrupt
            self._stack_var.set(tuple(s for s in stack if s is not span))

    # -- remote span grafting ----------------------------------------------

    def attach_remote(
        self, records: list[dict], anchor: Span | None = None
    ) -> list[Span]:
        """Graft worker-shipped span dicts into the local tree.

        ``records`` is the nested ``to_dict`` form produced by
        :func:`run_traced_child` in another process.  Remote clocks differ
        from ours, so the subtree is rebased: the earliest remote start
        maps onto ``anchor.start`` (the dispatch span the work happened
        inside).  Remote ids are preserved — the grafted spans keep their
        worker-minted ``span_id``s and their ``parent_id`` links.
        """
        if not records:
            return []
        grafted = [self._revive(r) for r in records]
        base = min(s.start for s in grafted)
        offset = (anchor.start if anchor is not None else 0.0) - base
        for root in grafted:
            for s, _ in root.walk():
                s.start += offset
                if s.end is not None:
                    s.end += offset
            if anchor is not None:
                if root.parent_id is None:
                    root.parent_id = anchor.span_id
                anchor.children.append(root)
            else:
                with self._lock:
                    self.roots.append(root)
        return grafted

    def _revive(self, record: dict) -> Span:
        span = Span(self, str(record["name"]), dict(record.get("tags", {})))
        span.span_id = str(record.get("span_id") or span.span_id)
        span.trace_id = str(record.get("trace_id", ""))
        parent_id = record.get("parent_id")
        span.parent_id = str(parent_id) if parent_id is not None else None
        span.start = float(record.get("start", 0.0))
        span.end = span.start + float(record.get("duration", 0.0))
        span.events = [dict(e) for e in record.get("events", [])]
        span.children = [self._revive(c) for c in record.get("children", [])]
        return span

    # -- views ---------------------------------------------------------------

    def walk(self):
        """Yield ``(span, depth)`` over every recorded root, in order."""
        for root in list(self.roots):
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        for s, _ in self.walk():
            if s.name == name:
                return s
        return None

    def trace_roots(self, trace_id: str) -> list[Span]:
        """Every recorded root belonging to one request tree."""
        return [r for r in list(self.roots) if r.trace_id == trace_id]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [root.to_dict() for root in list(self.roots)]

    def write_jsonl(self, path: str) -> int:
        """Dump the trace as JSONL; returns the number of lines written."""
        from repro.obs.export import trace_to_jsonl

        text = trace_to_jsonl(self)
        with open(path, "w") as fh:
            fh.write(text)
        return text.count("\n")

    def render_flamegraph(self, width: int = 72) -> str:
        from repro.obs.export import render_flamegraph

        return render_flamegraph(self, width=width)


_TRACER = Tracer()


def _fresh_locks_after_fork() -> None:
    # Same hazard as the metrics registry: a pool worker forked while another
    # thread mints a span id would inherit that lock held.
    global _ID_LOCK
    _ID_LOCK = threading.Lock()
    _TRACER._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def span(name: str, **tags: Any) -> Span | _NullSpan:
    """Shortcut for ``get_tracer().span(...)``."""
    return _TRACER.span(name, **tags)


def trace_event(name: str, **fields: Any) -> None:
    """Shortcut for ``get_tracer().event(...)``; no-op while disabled."""
    if _TRACER.enabled:
        _TRACER.event(name, **fields)


def run_traced_child(
    context: dict | None, fn: Callable[[], Any]
) -> tuple[Any, list[dict] | None]:
    """Run ``fn`` in a worker process under a shipped :class:`TraceContext`.

    Returns ``(value, spans)`` where ``spans`` is the worker-side span
    forest (nested dicts, parented under the context) for the dispatching
    process to graft via :meth:`Tracer.attach_remote` — or ``None`` when no
    context was shipped *or* we are still in the minting process (inline
    executors): there the live tracer records spans directly and resetting
    it would destroy the caller's trace mid-flight.
    """
    if context is None:
        return fn(), None
    ctx = TraceContext.from_dict(context)
    if ctx.pid == os.getpid():
        return fn(), None
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    tracer.adopt(ctx)
    try:
        value = fn()
    finally:
        spans = tracer.to_dicts()
        tracer.disable()
        tracer.reset()
    return value, spans
