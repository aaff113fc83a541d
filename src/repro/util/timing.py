"""Lightweight wall-clock timing used by solver statistics."""

from __future__ import annotations

import time


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True

    Also usable un-entered via :meth:`start`/:meth:`stop` for solvers that
    accumulate time across phases.
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._start is not None

    def peek(self) -> float:
        """Elapsed seconds so far, without stopping the stopwatch."""
        if self._start is None:
            return self.elapsed
        return self.elapsed + (time.perf_counter() - self._start)

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
