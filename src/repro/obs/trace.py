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
it were recorded in another task or thread.  Nothing is grafted across
processes: every served request is answered in the process that took it.

Determinism contract: spans record wall-clock for *reporting only*.  No
caller may branch on span state or timings, and nothing here touches RNG
streams or request fingerprints.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Any

_ID_COUNTER = itertools.count(1)
_ID_LOCK = threading.Lock()


def _next_id() -> str:
    """A process-unique id: ``<pid hex>-<counter hex>``.

    The pid is read at mint time (not cached), so a forked child mints ids
    in its own namespace even though it inherits the counter.
    """
    with _ID_LOCK:
        n = next(_ID_COUNTER)
    return f"{os.getpid():x}-{n:x}"


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

        Re-minting the context variable is the only way to clear stacks
        captured in *other* contexts (tasks, threads) — stale values held
        there die with the old variable.
        """
        with self._lock:
            self.roots = []
        self._stack_var = ContextVar("hslb_span_stack", default=())
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

    def _push(self, span: Span) -> None:
        stack = self._stack_var.get()
        if stack:
            parent = stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
            parent.children.append(span)
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
    # Same hazard as the metrics registry: a child forked while another
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
