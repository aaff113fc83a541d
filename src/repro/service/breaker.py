"""Per-family circuit breaker: stop hammering a fingerprint family that
keeps killing solves.

Requests in one *family* (same curves/objective/options, any node budget —
see :meth:`repro.service.request.SolveRequest.family_key`) hit the same
corner of the solver; when that corner reliably crashes or hangs, every
further exact attempt burns its retries for nothing.  The
breaker is the classic three-state machine, per family key:

* **closed** — normal operation; :data:`FAILURE_THRESHOLD` *consecutive*
  system failures open it (a single success resets the streak);
* **open** — exact solves are short-circuited straight to the degradation
  ladder for :data:`RESET_TIMEOUT` seconds (injectable clock);
* **half-open** — after the timeout, one trial request passes through; its
  success closes the breaker, its failure re-opens it (with a fresh
  timeout).

Only system failures (crash, hang, corruption) count; a model
that is legitimately infeasible is an *answer*, not a breaker event.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.metrics import REGISTRY

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


#: Consecutive system failures that open a closed breaker.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker short-circuits before it lets one probe through.
RESET_TIMEOUT = 30.0


@dataclass
class _FamilyState:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probing: bool = False  # the half-open state's one probe is out
    opens: int = 0  # lifetime count, for snapshots/tests


class CircuitBreaker:
    """Family-keyed breaker with an injectable clock (tests drive time)."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._states: dict[str, _FamilyState] = {}

    def _state(self, key: str) -> _FamilyState:
        return self._states.setdefault(key, _FamilyState())

    def _transition(self, key: str, st: _FamilyState, to: str) -> None:
        st.state = to
        REGISTRY.counter("service_breaker_transitions_total").inc(to=to)
        st.probing = False
        if to == OPEN:
            st.opens += 1
            st.opened_at = self.clock()
        elif to == CLOSED:
            st.consecutive_failures = 0

    # -- the three questions ------------------------------------------------

    def allow(self, key: str) -> bool:
        """May an exact solve for this family proceed right now?

        In the half-open state the ``True`` answer *consumes* the one probe,
        so callers must follow through with ``record_success`` or
        ``record_failure`` for the state machine to advance.
        """
        st = self._state(key)
        if st.state == CLOSED:
            return True
        if st.state == OPEN:
            if self.clock() - st.opened_at < RESET_TIMEOUT:
                return False
            self._transition(key, st, HALF_OPEN)
        if st.probing:
            return False
        st.probing = True
        return True

    def record_success(self, key: str) -> None:
        st = self._state(key)
        if st.state == HALF_OPEN:
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
            st.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._transition(key, st, OPEN)

    # -- introspection ------------------------------------------------------

    def state(self, key: str) -> str:
        """Current state name, advancing open -> half-open lazily on read."""
        st = self._state(key)
        if st.state == OPEN and (
            self.clock() - st.opened_at >= RESET_TIMEOUT
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


__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
