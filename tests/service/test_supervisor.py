"""Supervised worker pool: health, crash containment, bounded restarts.

Real-process cases (``os._exit``, sleeps) keep their work tiny so the suite
stays fast; everything policy-shaped runs on the inline executor.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.service import (
    InlineExecutor,
    RestartBudgetError,
    SupervisedWorkerPool,
    WorkerCrashError,
    WorkerHangError,
)


# Pool tasks must be module-level (picklable) for the real-process cases.
def _double(x):
    return 2 * x


def _die(code):
    os._exit(code)


def _nap(seconds):
    time.sleep(seconds)
    return "woke"


def _raise_crash():
    raise WorkerCrashError(worker_id=-1, detail="injected")


def _raise_hang():
    raise WorkerHangError(worker_id=-1, timeout=0.0)


def test_inline_pool_round_trip():
    with SupervisedWorkerPool.inline(2) as pool:
        d = pool.submit(_double, 21)
        assert pool.result(d) == 42
        snap = pool.snapshot()
        assert snap["restarts_used"] == 0
        health = snap["workers"][d.worker_id]
        assert health["dispatched"] == 1
        assert health["completed"] == 1


def test_unharvested_dispatches_spread_across_slots():
    with SupervisedWorkerPool.inline(2) as pool:
        first = pool.submit(_double, 1)
        second = pool.submit(_double, 2)
        assert first.worker_id != second.worker_id
        pool.result(first)
        pool.result(second)


def test_task_exceptions_propagate_unwrapped():
    with SupervisedWorkerPool.inline(1) as pool:
        d = pool.submit(_raise_value_error)
        with pytest.raises(ValueError, match="task's own"):
            pool.result(d)
        # A task failure is not a worker death: no restart spent.
        assert pool.snapshot()["restarts_used"] == 0


def _raise_value_error():
    raise ValueError("task's own failure")


def test_simulated_crash_is_booked_and_slot_replaced():
    with SupervisedWorkerPool.inline(1, restart_budget=2) as pool:
        d = pool.submit(_raise_crash)
        with pytest.raises(WorkerCrashError):
            pool.result(d)
        snap = pool.snapshot()
        assert snap["workers"][0]["crashes"] == 1
        assert snap["workers"][0]["restarts"] == 1
        assert snap["restarts_used"] == 1
        # The replacement slot takes work again.
        assert pool.result(pool.submit(_double, 2)) == 4


def test_simulated_hang_is_booked_as_hang():
    with SupervisedWorkerPool.inline(1, restart_budget=2) as pool:
        d = pool.submit(_raise_hang)
        with pytest.raises(WorkerHangError):
            pool.result(d)
        assert pool.snapshot()["workers"][0]["hangs"] == 1


def test_restart_budget_exhaustion_retires_the_pool():
    with SupervisedWorkerPool.inline(1, restart_budget=1) as pool:
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                pool.result(pool.submit(_raise_crash))
        assert pool.capacity == 0
        with pytest.raises(RestartBudgetError):
            pool.submit(_double, 1)


def test_restart_budget_bounds_consecutive_failures_only():
    """Isolated crashes over a long life never retire a slot.

    The budget is spent by a *run* of failures; a completed task resets it,
    so a long-lived tier survives any number of crashes that each recover.
    """
    with SupervisedWorkerPool.inline(1, restart_budget=1) as pool:
        for _ in range(5):
            with pytest.raises(WorkerCrashError):
                pool.result(pool.submit(_raise_crash))
            assert pool.result(pool.submit(_double, 2)) == 4
        snap = pool.snapshot()
        assert snap["restarts_used"] == 5 and snap["retired"] == 0
        assert snap["workers"][0]["consecutive_failures"] == 0
        # ...while two in a row still exhaust a budget of one.
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                pool.result(pool.submit(_raise_crash))
        assert pool.capacity == 0


def test_each_slot_forks_its_own_worker_at_its_first_submit():
    children = set(multiprocessing.active_children())

    def forked() -> int:
        return len(set(multiprocessing.active_children()) - children)

    with SupervisedWorkerPool(2) as pool:
        assert forked() == 0  # building a pool forks nothing
        first = pool.result(pool.submit(os.getpid), timeout=30.0)
        assert forked() == 1
        busy = pool.submit(_nap, 0.5)  # the idle first slot takes it
        assert forked() == 1
        second = pool.result(pool.submit(os.getpid), timeout=30.0)
        assert forked() == 2
        assert pool.result(busy, timeout=30.0) == "woke"
        assert len({first, second}) == 2 and os.getpid() not in (first, second)
        assert [w["completed"] for w in pool.snapshot()["workers"]] == [2, 1]


def test_shutdown_does_not_respawn_a_dying_slot():
    with SupervisedWorkerPool(1, restart_budget=2) as pool:
        d = pool.submit(_nap, 30.0)
        pool.shutdown()  # kills the worker under the in-flight task
        with pytest.raises(WorkerCrashError):
            pool.result(d, timeout=30.0)
        assert pool.capacity == 0 and pool.snapshot()["restarts_used"] == 0


def test_real_worker_kill_is_contained_and_recovered():
    """An ``os._exit`` in a worker process must not take the pool down."""
    with SupervisedWorkerPool(2, restart_budget=2) as pool:
        victim = pool.submit(_die, 3)
        survivor = pool.submit(_double, 5)
        with pytest.raises(WorkerCrashError):
            pool.result(victim, timeout=30.0)
        # The other slot's in-flight work is untouched by the crash...
        assert pool.result(survivor, timeout=30.0) == 10
        # ...and the replaced slot serves again without a pool restart.
        assert pool.result(pool.submit(_double, 7), timeout=30.0) == 14
        assert pool.snapshot()["restarts_used"] == 1


def test_real_hang_kills_and_replaces_the_worker():
    with SupervisedWorkerPool(1, restart_budget=2) as pool:
        d = pool.submit(_nap, 30.0)
        start = time.perf_counter()
        with pytest.raises(WorkerHangError):
            pool.result(d, timeout=0.3)
        assert time.perf_counter() - start < 10.0  # killed, not waited out
        assert pool.snapshot()["workers"][0]["hangs"] == 1
        assert pool.result(pool.submit(_double, 3), timeout=30.0) == 6


def test_inline_executor_wraps_results_and_exceptions():
    ex = InlineExecutor()
    assert ex.submit(_double, 3).result() == 6
    assert isinstance(
        ex.submit(_raise_value_error).exception(), ValueError
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        SupervisedWorkerPool(0)
    with pytest.raises(ValueError):
        SupervisedWorkerPool.inline(1, restart_budget=-1)
