"""Retry policy: how many times an idempotent solve is tried.

HSLB solves are idempotent — fingerprint-seeded and side-effect free — so a
crashed or hung solve can simply be run again: up to ``max_attempts`` tries
per request, back to back.  Nothing waits between attempts: a solve runs
in-process (on the serving tier's event loop), so there is no replacement
worker to wait for.

The module is policy only; the service owns the dispatch mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a request to the degradation ladder.

    ``max_attempts``
        Total tries (1 = no retries).  Only *system* failures — injected
        crashes, hangs, corrupted results — are retried; an infeasible
        request never is, because re-running a deterministic answer
        reproduces it.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def retries(self) -> int:
        return self.max_attempts - 1


__all__ = ["RetryPolicy"]
