"""Admission control: bounded queues and deadline-aware rejection.

The server asks the :class:`AdmissionController` before enqueueing any
non-coalescing request.  Two checks, both O(1):

* **bounded queue** — at most ``queue_limit`` requests may wait;
  beyond that the system is saturated and queueing more work only
  grows latency for everyone (open-loop load does not slow down when
  the server does);
* **predicted deadline miss** — an EWMA of observed service times
  estimates how long the current queue will take to drain, one item
  after another; a request
  whose deadline is shorter than that estimate is shed immediately
  rather than executed for nobody.

A deadline is the request's own ``deadline_s``; a request without one
never misses.  The clock is injectable (mirroring
:mod:`repro.resilience`): tests drive deadline expiry with a fake clock
instead of sleeping on the event loop.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.serving.config import ServingConfig
from repro.serving.request import Request

#: shed reasons, reported in Response.reason and the serving.outcome counter
REASON_QUEUE_FULL = "queue_full"
REASON_DEADLINE = "deadline"
REASON_EXPIRED = "expired"
REASON_CLOSED = "closed"
REASON_CANCELLED = "cancelled"  # the submitter was cancelled while it waited

#: smoothing factor of the service-time estimate
EWMA_ALPHA = 0.2


class AdmissionController:
    """Decides, per request, whether the queue may grow by one."""

    def __init__(
        self,
        config: ServingConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self._ewma_service_s = 0.0

    # -- service-time estimation -------------------------------------------

    @property
    def ewma_service_s(self) -> float:
        """Smoothed per-request service time (0 until first observation)."""
        return self._ewma_service_s

    def observe_service(self, seconds: float) -> None:
        """Feed one completed execution's duration into the estimate."""
        seconds = max(float(seconds), 0.0)
        if self._ewma_service_s == 0.0:
            self._ewma_service_s = seconds
        else:
            self._ewma_service_s = (
                EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * self._ewma_service_s
            )

    def estimated_wait_s(self, queue_depth: int) -> float:
        """Predicted queue wait for a request arriving now.

        ``(depth + 1)`` requests must be served, one at a time, before
        the newcomer completes: the one worker renders one item at a
        time through the one backend, so the estimate is ``(depth + 1)
        x ewma``.  With no service observations yet it is 0 (admit
        optimistically).
        """
        return (queue_depth + 1) * self._ewma_service_s

    # -- the admission decision ---------------------------------------------

    def deadline_of(self, request: Request) -> Optional[float]:
        """Absolute deadline for *request* admitted now (None = none)."""
        if request.deadline_s is None or request.deadline_s <= 0:
            return None
        return self.clock() + float(request.deadline_s)

    def admit(self, request: Request, queue_depth: int) -> Tuple[bool, str]:
        """``(admitted, shed_reason)``; reason is ``""`` when admitted."""
        if queue_depth >= self.config.queue_limit:
            return False, REASON_QUEUE_FULL
        relative = request.deadline_s
        if (
            relative is not None
            and relative > 0
            and self.estimated_wait_s(queue_depth) > relative
        ):
            return False, REASON_DEADLINE
        return True, ""
