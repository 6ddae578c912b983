"""A minimal three-state circuit breaker.

Protects a repeatedly-failing dependency (a dead hyperwall client, an
unreachable federation node) from being hammered by retries: after
``failure_threshold`` consecutive failures the breaker *opens* and
short-circuits calls for ``reset_timeout`` seconds, then lets a bounded
number of *half-open* probes through; one success re-closes it, a
probe failure re-opens it.

The clock is injectable so tests (and the simulated-time benchmarks)
drive state transitions without waiting.  State is exported as the
``resilience.breaker.state`` gauge (0 = closed, 1 = half-open,
2 = open) and transitions as the ``resilience.breaker.transitions``
counter, both labelled by breaker name.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro import obs
from repro.util.errors import ResilienceError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitOpenError(ResilienceError):
    """A call was short-circuited because the breaker is open."""


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ResilienceError(f"reset_timeout must be positive, got {reset_timeout}")
        if half_open_max < 1:
            raise ResilienceError(f"half_open_max must be >= 1, got {half_open_max}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.half_open_max = int(half_open_max)
        self.clock = clock
        self.name = name
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._current_state()

    def _current_state(self) -> str:
        # caller holds the lock
        if self._state == OPEN and self.clock() - self._opened_at >= self.reset_timeout:
            self._transition(HALF_OPEN)
            self._probes = 0
        return self._state

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        previous, self._state = self._state, state
        if obs.enabled():
            obs.gauge("resilience.breaker.state", _STATE_GAUGE[state], breaker=self.name)
            obs.counter(
                "resilience.breaker.transitions",
                breaker=self.name,
                from_state=previous,
                to_state=state,
            )

    def allow(self) -> bool:
        """Whether a call may proceed right now (consumes a probe slot
        when half-open)."""
        with self._lock:
            state = self._current_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and self._probes < self.half_open_max:
                self._probes += 1
                return True
            return False

    def release(self) -> None:
        """Give back the probe slot an :meth:`allow` took, recording no
        outcome: the call never reached the dependency."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes:
                self._probes -= 1

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            state = self._current_state()
            self._failures += 1
            if state == HALF_OPEN or self._failures >= self.failure_threshold:
                self._opened_at = self.clock()
                self._transition(OPEN)

    # -- call wrapper ------------------------------------------------------

    def call(
        self,
        fn: Callable[[], Any],
        fallback: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Run *fn* through the breaker.

        Short-circuits to *fallback* (or raises :class:`CircuitOpenError`)
        while open; success/failure of *fn* feeds the state machine.
        """
        if not self.allow():
            if fallback is not None:
                return fallback()
            raise CircuitOpenError(
                f"circuit {self.name!r} is open "
                f"({self._failures} consecutive failures)"
            )
        try:
            value = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return value
