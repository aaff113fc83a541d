"""The service's answer envelope: allocation plus provenance.

``cached`` tells the caller *how* the answer was
produced — the service analogue of :class:`repro.core.hslb.SolverProvenance`
— and ``source`` records which rung of the degradation ladder answered:

* ``"exact"``  — a fresh solve finished normally;
* ``"cache"``  — a live cache hit (bit-identical to the exact answer);
* ``"stale"``  — a cache entry past its TTL, served under bounded
  staleness (``staleness`` carries its age in seconds);
* ``"greedy"`` — the polynomial-time approximate fallback;
* ``"rejected"`` — no rung could answer; a typed refusal envelope.

Every response is explicit about its rung, so a caller (or a metrics
scrape) can always distinguish a first-class answer from a degraded one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minlp.solution import Status
from repro.service.errors import (
    ServiceError,
    ServiceOverloadError,
    ServiceRejectedError,
    ServiceTimeoutError,
)
from repro.service.solver import SolveOutcome

#: Degradation rungs, best to worst.
SOURCES = ("exact", "cache", "stale", "greedy", "rejected")


def error_payload(exc: ServiceError) -> dict:
    """The one :class:`ServiceError` -> wire mapping (JSONL error lines).

    ``status`` names the failure (``overload`` / ``time_limit`` /
    ``rejected`` / ``error``); the error's identity rides along where it
    has one (``fingerprint``, and ``retry_after`` for a shed request).
    """
    payload = {"error": str(exc), "status": Status.ERROR.value}
    if isinstance(exc, ServiceOverloadError):
        payload.update(status="overload", retry_after=exc.retry_after)
    elif isinstance(exc, ServiceTimeoutError):
        payload["status"] = Status.TIME_LIMIT.value
    elif isinstance(exc, ServiceRejectedError):
        payload["status"] = "rejected"
    if getattr(exc, "fingerprint", ""):
        payload["fingerprint"] = exc.fingerprint
    return payload


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request, with full provenance."""

    fingerprint: str
    allocation: dict[str, int]
    objective: float
    status: str
    cached: bool
    iterations: int
    latency: float  # seconds spent answering, queue to response
    message: str = ""
    source: str = "exact"  # which ladder rung answered (see SOURCES)
    staleness: float = 0.0  # age in seconds of a stale-served answer
    trace_id: str = ""  # the request's trace, when tracing was enabled
    warm_started: bool = False  # always; read by the e2e harness (ROADMAP 1(iii))

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown response source {self.source!r}")

    @property
    def ok(self) -> bool:
        return self.status in (Status.OPTIMAL.value, Status.FEASIBLE.value)

    @property
    def degraded(self) -> bool:
        """True when any rung below exact/cache produced this answer."""
        return self.source in ("stale", "greedy", "rejected")

    @classmethod
    def from_outcome(
        cls,
        outcome: SolveOutcome,
        *,
        cached: bool,
        latency: float,
        source: str | None = None,
        staleness: float = 0.0,
    ) -> "ServiceResponse":
        return cls(
            fingerprint=outcome.fingerprint,
            allocation=dict(outcome.allocation),
            objective=outcome.objective,
            status=outcome.status,
            cached=cached,
            iterations=outcome.iterations,
            latency=latency,
            message=outcome.message,
            source=source or ("cache" if cached else "exact"),
            staleness=staleness,
        )

    @classmethod
    def from_error(cls, exc: ServiceError, fingerprint: str) -> "ServiceResponse":
        """A raised :class:`ServiceError` as an in-order response envelope."""
        payload = error_payload(exc)
        refused = payload["status"] in ("overload", "rejected")
        return cls.error(
            fingerprint=fingerprint,
            status=payload["status"],
            message=payload["error"],
            source="rejected" if refused else "exact",
        )

    @classmethod
    def error(
        cls,
        *,
        fingerprint: str,
        status: str,
        message: str,
        source: str = "exact",
        latency: float = 0.0,
    ) -> "ServiceResponse":
        """A failed request (timeout, overload, rejection) as an envelope."""
        return cls(
            fingerprint=fingerprint,
            allocation={},
            objective=float("nan"),
            status=status,
            cached=False,
            iterations=0,
            latency=latency,
            message=message,
            source=source,
        )

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "allocation": dict(self.allocation),
            "objective": self.objective,
            "status": self.status,
            "cached": self.cached,
            "warm_started": self.warm_started,
            "iterations": self.iterations,
            "latency": self.latency,
            "message": self.message,
            "source": self.source,
            "staleness": self.staleness,
            "trace_id": self.trace_id,
        }
