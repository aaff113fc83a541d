"""Typed service failures, following the :mod:`repro.faults` conventions.

Every error carries the identity of the event (which request, which limit)
as attributes, so callers — the batch executor, the JSONL serve loop, tests
— can reason about failures instead of string-matching messages.
"""

from __future__ import annotations


class ServiceError(RuntimeError):
    """Base class for every allocation-service failure."""


class ServiceRequestError(ServiceError):
    """A request that cannot be canonicalized or solved (caller's fault)."""


class ServiceOverloadError(ServiceError):
    """The admission queue is full; the caller must back off and retry.

    ``retry_after`` is the service's estimate (seconds) of when the backlog
    will have drained enough to admit the shed work — the JSONL loop and
    HTTP-ish front ends surface it as a ``Retry-After`` hint.
    """

    def __init__(
        self, *, pending: int, capacity: int, retry_after: float = 0.0
    ) -> None:
        self.pending = pending
        self.capacity = capacity
        self.retry_after = max(0.0, float(retry_after))
        hint = f"; retry after ~{self.retry_after:.3g}s" if self.retry_after else ""
        super().__init__(
            f"admission queue full: {pending} request(s) against a capacity "
            f"of {capacity}; retry after the backlog drains{hint}"
        )


class ServiceRejectedError(ServiceError):
    """Every rung of the degradation ladder failed; the request is refused.

    This is the explicit bottom of exact -> stale -> greedy: the caller gets
    a typed rejection carrying why each rung was unavailable, never a silent
    drop or an unbounded wait.
    """

    def __init__(self, *, fingerprint: str, reason: str) -> None:
        self.fingerprint = fingerprint
        self.reason = reason
        super().__init__(
            f"request {fingerprint[:12]} rejected: {reason} "
            "(no exact answer, no stale cache entry, no greedy fallback)"
        )


class WorkerCrashError(ServiceError):
    """A solve died mid-flight (a chaos-injected crash)."""

    def __init__(self, *, fingerprint: str = "", detail: str = "") -> None:
        self.fingerprint = fingerprint
        self.detail = detail
        what = f" of {fingerprint[:12]}" if fingerprint else ""
        why = f": {detail}" if detail else ""
        super().__init__(f"solve{what} crashed{why}")


class WorkerHangError(ServiceError):
    """A solve stopped answering (a chaos-injected hang)."""

    def __init__(self, *, fingerprint: str = "") -> None:
        self.fingerprint = fingerprint
        what = f" of {fingerprint[:12]}" if fingerprint else ""
        super().__init__(f"solve{what} hung")
