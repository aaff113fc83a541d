"""Supervised worker pool: per-worker health, crash detection, replacement.

The only owner of worker processes in the service.  Each worker is its own
single-process executor — a **slot** — so

* a crash (the executor breaks) is contained to the slot that died and is
  surfaced as a typed :class:`WorkerCrashError` for *that* request only;
* a hang (harvest timeout) gets the slot's process killed and surfaces as
  :class:`WorkerHangError` — the stuck request is re-dispatchable, the
  worker is not left orphaned;
* the dead slot is **replaced** (a fresh executor) while its run of
  *consecutive* failures stays within ``restart_budget``; a completed task
  resets the run, so isolated crashes spread over a long-lived tier's life
  never exhaust it.  A slot that keeps dying retires, and when every slot
  has retired :class:`RestartBudgetError` tells the caller to degrade
  instead of dispatch.

Slots are picked least-inflight-first, so replacement workers rejoin the
rotation immediately.  An :class:`InlineExecutor` factory runs tasks
synchronously in-process — the deterministic mode the seeded chaos suite
uses, where injected faults arrive as exceptions rather than dead processes.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
from dataclasses import asdict, dataclass, field

from repro.obs.trace import get_tracer, run_traced_child
from repro.service.errors import (
    RestartBudgetError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.metrics import ServiceMetrics

_TRACED_MARKER = "__hslb_traced__"

#: A fresh process executor forks inside its first ``submit``.  Two threads
#: forking at once (two shards replacing dead workers) leak each other's
#: death-sentinel pipe into the wrong child: that worker's later crash then
#: never reaches its executor and the solve sits "running" until the hang
#: timeout.  Forks are rare and submits take microseconds, so one lock
#: around every executor submit is the whole fix (re-entrant: an inline
#: executor runs its task inside ``submit``).
_FORK_LOCK = threading.RLock()


def _traced_call(context: dict, fn: Callable, args: tuple) -> dict:
    """Worker-side wrapper: run ``fn(*args)`` under a shipped trace context.

    Returns a marker envelope carrying the task's value plus the spans the
    worker recorded, for :meth:`SupervisedWorkerPool.result` to unwrap and
    graft.  Module-level so it pickles into pool processes.
    """
    value, spans = run_traced_child(context, lambda: fn(*args))
    return {_TRACED_MARKER: True, "value": value, "spans": spans}


class InlineExecutor:
    """Executor-shaped synchronous runner (tasks run at ``submit`` time).

    Crash/hang faults arrive as exceptions raised by the task itself (the
    chaos harness raises :class:`WorkerCrashError`/:class:`WorkerHangError`),
    which the pool books against the slot exactly like a real process death.
    """

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — forwarded via the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@dataclass
class WorkerHealth:
    """Lifetime accounting for one worker slot (survives replacement)."""

    worker_id: int
    dispatched: int = 0
    completed: int = 0
    crashes: int = 0
    hangs: int = 0
    restarts: int = 0
    consecutive_failures: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Slot:
    worker_id: int
    executor: object
    health: WorkerHealth
    inflight: int = 0
    retired: bool = False


@dataclass
class Dispatch:
    """One submitted task: the slot it landed on plus its future."""

    slot: _Slot = field(repr=False)
    future: Future = field(repr=False)

    @property
    def worker_id(self) -> int:
        return self.slot.worker_id


def _kill_executor(executor: object) -> None:
    """Stop an executor *now*, terminating its processes if it has any."""
    processes = getattr(executor, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass  # already gone
    executor.shutdown(wait=False, cancel_futures=True)


class SupervisedWorkerPool:
    """A crash-isolating pool of single-worker executors.

    ``factory`` builds one worker's executor; the default is a real
    one-process :class:`ProcessPoolExecutor`, which forks its process inside
    its first ``submit``: a pool nobody submits to never forks.
    ``restart_budget`` bounds the replacements one slot may spend on
    *consecutive* failures.  ``metrics``
    is the owner's view (a pool nobody owns gets one of its own): every
    worker death and every replacement is booked there, in :meth:`_fail`,
    the one place each death passes — including those no request ever sees
    (an executor found broken at dispatch and swapped silently).
    """

    #: Exceptions that mean "the worker died" rather than "the task failed".
    CRASH_EXCEPTIONS = (BrokenExecutor, WorkerCrashError)

    def __init__(
        self,
        max_workers: int = 1,
        *,
        restart_budget: int = 3,
        factory: Callable[[], object] | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.restart_budget = restart_budget
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._factory = factory or (lambda: ProcessPoolExecutor(max_workers=1))
        self._slots = [
            _Slot(i, self._factory(), WorkerHealth(i)) for i in range(max_workers)
        ]

    @classmethod
    def inline(cls, max_workers: int = 1, **kwargs) -> "SupervisedWorkerPool":
        """A deterministic in-process pool (tasks run at submit time)."""
        return cls(max_workers, factory=InlineExecutor, **kwargs)

    # -- dispatch ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Slots still able to take work (live or replaceable)."""
        return sum(1 for s in self._slots if not s.retired)

    def submit(self, fn: Callable, *args) -> Dispatch:
        """Run ``fn(*args)`` on the least-loaded healthy worker.

        With tracing enabled, the call is transparently wrapped so the
        worker records its spans under the caller's current trace context
        and ships them back — the one cross-process trace carrier.
        """
        tracer = get_tracer()
        if tracer.enabled:
            context = tracer.current_context()
            if context is not None:
                fn, args = _traced_call, (context.to_dict(), fn, args)
        slot = self._pick()
        slot.health.dispatched += 1
        slot.inflight += 1
        try:
            with _FORK_LOCK:
                future = slot.executor.submit(fn, *args)
        except (RuntimeError, BrokenExecutor) as exc:
            # The executor died between tasks; replace it and try once more.
            self._fail(slot, "crash")
            if slot.retired:
                raise WorkerCrashError(
                    worker_id=slot.worker_id, detail=str(exc)
                ) from exc
            slot.inflight += 1
            with _FORK_LOCK:
                future = slot.executor.submit(fn, *args)
        return Dispatch(slot, future)

    def result(self, dispatch: Dispatch, timeout: float | None = None):
        """Harvest one dispatch; books health and replaces dead workers.

        Raises :class:`WorkerHangError` when the future misses ``timeout``
        (the slot's process is killed and replaced) and
        :class:`WorkerCrashError` when the worker died mid-task.  Any other
        exception is the *task's* and propagates unchanged.
        """
        slot = dispatch.slot
        try:
            value = dispatch.future.result(timeout=timeout)
        except FutureTimeout:
            self._fail(slot, "hang")
            raise WorkerHangError(
                worker_id=slot.worker_id, timeout=timeout
            ) from None
        except WorkerHangError:
            # Simulated hang (inline chaos): same bookkeeping as a real one.
            self._fail(slot, "hang")
            raise
        except self.CRASH_EXCEPTIONS as exc:
            self._fail(slot, "crash")
            if isinstance(exc, WorkerCrashError):
                raise
            raise WorkerCrashError(
                worker_id=slot.worker_id, detail=str(exc)
            ) from exc
        slot.inflight -= 1
        slot.health.completed += 1
        slot.health.consecutive_failures = 0
        if isinstance(value, dict) and value.get(_TRACED_MARKER):
            tracer = get_tracer()
            spans = value.get("spans")
            if spans and tracer.enabled:
                tracer.attach_remote(spans, anchor=tracer.current())
            value = value["value"]
        return value

    # -- supervision -------------------------------------------------------

    def _pick(self) -> _Slot:
        candidates = [slot for slot in self._slots if not slot.retired]
        if not candidates:
            raise RestartBudgetError(budget=self.restart_budget)
        return min(candidates, key=lambda s: (s.inflight, s.worker_id))

    def _fail(self, slot: _Slot, kind: str) -> None:
        """Book one worker death against ``slot``; kill its executor and
        install a fresh one, budget allowing."""
        slot.inflight -= 1
        if kind == "hang":
            slot.health.hangs += 1
        else:
            slot.health.crashes += 1
        slot.health.consecutive_failures += 1
        self.metrics.count("worker_hangs" if kind == "hang" else "worker_crashes")
        _kill_executor(slot.executor)
        if slot.retired or slot.health.consecutive_failures > self.restart_budget:
            slot.retired = True
            return
        slot.executor = self._factory()
        slot.health.restarts += 1
        self.metrics.count("worker_restarts")

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "workers": [s.health.as_dict() for s in self._slots],
            "retired": sum(1 for s in self._slots if s.retired),
            "restarts_used": sum(s.health.restarts for s in self._slots),
            "restart_budget": self.restart_budget,
        }

    def shutdown(self) -> None:
        for slot in self._slots:
            _kill_executor(slot.executor)
            slot.retired = True

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = [
    "Dispatch",
    "InlineExecutor",
    "SupervisedWorkerPool",
    "WorkerHealth",
]
