"""Per-family circuit breaker: stop hammering a fingerprint family that
keeps killing solves.

Requests in one *family* (same curves/objective/options, any node budget —
see :meth:`repro.service.request.SolveRequest.family_key`) hit the same
corner of the solver; when that corner reliably crashes or times out, every
further exact attempt burns a worker and a deadline for nothing.  The
breaker is the classic three-state machine, per family key:

* **closed** — normal operation; ``failure_threshold`` *consecutive* system
  failures open it (a single success resets the streak);
* **open** — exact solves are short-circuited straight to the degradation
  ladder for ``reset_timeout`` seconds (injectable clock);
* **half-open** — after the timeout, up to ``probe_limit`` trial requests
  pass through; ``successes_to_close`` probe successes close the breaker,
  one probe failure re-opens it (with a fresh timeout).

Only system failures (crash, hang, timeout, corruption) count; a model
that is legitimately infeasible is an *answer*, not a breaker event.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for the per-family state machine."""

    failure_threshold: int = 3
    reset_timeout: float = 30.0
    probe_limit: int = 1
    successes_to_close: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if self.probe_limit < 1:
            raise ValueError("probe_limit must be >= 1")
        if not (1 <= self.successes_to_close <= self.probe_limit):
            raise ValueError("need 1 <= successes_to_close <= probe_limit")


@dataclass
class _FamilyState:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probes_issued: int = 0
    probe_successes: int = 0
    opens: int = 0  # lifetime count, for snapshots/tests


class CircuitBreaker:
    """Family-keyed breaker with an injectable clock (tests drive time)."""

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.clock = clock
        self._states: dict[str, _FamilyState] = {}

    def _state(self, key: str) -> _FamilyState:
        return self._states.setdefault(key, _FamilyState())

    def _transition(self, key: str, st: _FamilyState, to: str) -> None:
        st.state = to
        REGISTRY.counter("service_breaker_transitions_total").inc(to=to)
        if to == OPEN:
            st.opens += 1
            st.opened_at = self.clock()
            st.probes_issued = 0
            st.probe_successes = 0
        elif to == HALF_OPEN:
            st.probes_issued = 0
            st.probe_successes = 0
        elif to == CLOSED:
            st.consecutive_failures = 0

    # -- the three questions ------------------------------------------------

    def allow(self, key: str) -> bool:
        """May an exact solve for this family proceed right now?

        In the half-open state each ``True`` answer *consumes* one probe
        slot, so callers must follow through with ``record_success`` or
        ``record_failure`` for the state machine to advance.
        """
        st = self._state(key)
        if st.state == CLOSED:
            return True
        if st.state == OPEN:
            if self.clock() - st.opened_at < self.policy.reset_timeout:
                return False
            self._transition(key, st, HALF_OPEN)
        if st.probes_issued >= self.policy.probe_limit:
            return False
        st.probes_issued += 1
        return True

    def record_success(self, key: str) -> None:
        st = self._state(key)
        if st.state == HALF_OPEN:
            st.probe_successes += 1
            if st.probe_successes >= self.policy.successes_to_close:
                self._transition(key, st, CLOSED)
            return
        st.consecutive_failures = 0

    def record_failure(self, key: str) -> None:
        st = self._state(key)
        if st.state == HALF_OPEN:
            self._transition(key, st, OPEN)
            return
        st.consecutive_failures += 1
        if st.state == CLOSED and (
            st.consecutive_failures >= self.policy.failure_threshold
        ):
            self._transition(key, st, OPEN)

    # -- introspection ------------------------------------------------------

    def state(self, key: str) -> str:
        """Current state name, advancing open -> half-open lazily on read."""
        st = self._state(key)
        if st.state == OPEN and (
            self.clock() - st.opened_at >= self.policy.reset_timeout
        ):
            return HALF_OPEN
        return st.state

    def snapshot(self) -> dict:
        return {
            key: {
                "state": self.state(key),
                "consecutive_failures": st.consecutive_failures,
                "opens": st.opens,
            }
            for key, st in sorted(self._states.items())
        }


__all__ = ["BreakerPolicy", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
