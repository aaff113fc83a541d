"""Retry policy: idempotent re-dispatch with deterministic jitter.

HSLB solves are idempotent — fingerprint-seeded and side-effect free — so a
crashed or hung solve can simply be dispatched again: up to
``max_attempts`` tries per request, separated by capped exponential
backoff.  The jitter is *deterministic*: it is drawn from a stable hash of
``(key, attempt)``, never from wall-clock entropy, so a seeded chaos run
replays bit-identically (the same property
:class:`repro.faults.plan.FaultPlan` pins for injection draws).

The module is policy only; the service owns the dispatch mechanics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _unit(key: str, attempt: int) -> float:
    """Stable uniform-ish draw in [0, 1) keyed by (key, attempt)."""
    digest = hashlib.blake2b(
        f"{key}\x1f{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a request to the degradation ladder.

    ``max_attempts``
        Total tries (1 = no retries).  Only *system* failures — worker
        crashes, hangs, corrupted results — are retried; a deterministic
        solver outcome (infeasible, wall-budget exhausted) never is,
        because re-running a deterministic failure reproduces it.
    ``base_delay`` / ``max_delay`` / ``jitter``
        Backoff before attempt ``k`` is ``min(max_delay, base_delay *
        2**(k-1))``, shrunk by up to ``jitter`` (fraction) of itself via the
        deterministic draw.  Jitter only ever shortens the wait, so
        ``max_delay`` is a hard cap.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministic pre-attempt delay in seconds (attempt >= 1)."""
        if attempt < 1:
            return 0.0
        base = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
        if not self.jitter:
            return base
        return base * (1.0 - self.jitter * _unit(key, attempt))

    @property
    def retries(self) -> int:
        return self.max_attempts - 1


__all__ = ["RetryPolicy"]
