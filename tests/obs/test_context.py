"""Context propagation: span stacks across asyncio tasks and threads.

The regression this file pins: under the old thread-local stack, two
asyncio tasks interleaving on one loop thread would stitch their spans
into each other's trees (task B's span nested under whatever task A had
open at the switch).  With contextvar stacks every task owns its stack,
so concurrent requests produce independent, correctly-nested trees.
"""

import asyncio
import contextvars
import threading

from repro.obs.trace import span


async def _request(name: str, delay: float) -> None:
    """One request shape: root -> (phase-1, phase-2), yielding between."""
    with span(name):
        with span(f"{name}.phase-1"):
            await asyncio.sleep(delay)
        await asyncio.sleep(delay)
        with span(f"{name}.phase-2"):
            await asyncio.sleep(delay)


def test_interleaved_tasks_build_independent_trees(tracer):
    """Two concurrent tasks must not splice spans into each other's tree."""

    async def main():
        # Different delays force genuine interleaving at every await.
        await asyncio.gather(_request("a", 0.003), _request("b", 0.001))

    asyncio.run(main())
    roots = {r.name: r for r in tracer.roots}
    assert sorted(roots) == ["a", "b"]
    for name, root in roots.items():
        assert [c.name for c in root.children] == [
            f"{name}.phase-1",
            f"{name}.phase-2",
        ]
        for child in root.children:
            assert child.children == []
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
    assert roots["a"].trace_id != roots["b"].trace_id


def test_task_spans_nest_under_span_open_at_spawn(tracer):
    """A task's context is copied at create_task: it sees the open span."""

    async def child():
        with span("kid"):
            await asyncio.sleep(0)

    async def main():
        with span("parent"):
            task = asyncio.create_task(child())
            await task

    asyncio.run(main())
    (root,) = tracer.roots
    assert root.name == "parent"
    assert [c.name for c in root.children] == ["kid"]
    assert root.children[0].parent_id == root.span_id


def test_every_span_carries_ids(tracer):
    with span("outer") as outer:
        with span("inner") as inner:
            pass
    assert outer.trace_id and outer.span_id and outer.parent_id is None
    assert inner.trace_id == outer.trace_id
    assert inner.span_id != outer.span_id
    assert inner.parent_id == outer.span_id


def test_sibling_roots_get_distinct_trace_ids(tracer):
    with span("first"):
        pass
    with span("second"):
        pass
    a, b = tracer.roots
    assert a.trace_id != b.trace_id
    assert tracer.trace_roots(a.trace_id) == [a]


def test_plain_thread_starts_a_fresh_root(tracer):
    seen = {}

    def worker():
        with span("thread-side") as s:
            seen["parent_id"] = s.parent_id

    with span("main-side"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    # A bare thread has no inherited stack: its span is an independent root.
    assert seen["parent_id"] is None
    assert sorted(r.name for r in tracer.roots) == ["main-side", "thread-side"]


def test_copied_context_carries_the_stack_across_a_thread(tracer):
    """The run_in_executor recipe: copy_context().run nests the hop."""

    def worker():
        with span("executor-side"):
            pass

    with span("main-side") as parent:
        ctx = contextvars.copy_context()
        t = threading.Thread(target=ctx.run, args=(worker,))
        t.start()
        t.join()
    (root,) = tracer.roots
    assert root is parent
    assert [c.name for c in root.children] == ["executor-side"]
    assert root.children[0].parent_id == parent.span_id
