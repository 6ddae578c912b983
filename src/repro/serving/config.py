"""Configuration for the multi-tenant serving layer.

A :class:`ServingConfig` bounds every resource the server manages: the
executor thread pool, the admission queue, the overload breaker, the
degraded-render fallback and the per-tenant cache quotas.  All limits
are explicit and validated up front so a misconfigured deployment fails
at construction, not under load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ServingError


@dataclass(frozen=True)
class ServingConfig:
    """Bounds and policies of one :class:`~repro.serving.server.ServingServer`.

    Parameters
    ----------
    workers:
        Executor threads draining the admission queue.  Each runs one
        request at a time through the backend.
    queue_limit:
        Maximum queued-but-not-executing requests.  A full queue sheds
        new non-coalescing requests with reason ``queue_full``.
    default_deadline_s:
        Deadline applied to requests that do not carry their own
        (0 disables).  Deadlines are relative to submission.
    shed_on_predicted_miss:
        When a request has a deadline, reject it at admission if the
        EWMA-estimated queue wait already exceeds the deadline —
        shedding early is cheaper than executing work nobody will wait
        for.
    ewma_alpha:
        Smoothing factor of the service-time estimate feeding the
        predicted-wait check.
    breaker_failures / breaker_reset_s:
        Consecutive backend failures that open the kernel circuit
        breaker, and how long it stays open before half-open probing.
        While open, requests are served from cache or degraded instead
        of hammering the failing backend.
    allow_degraded:
        Whether an open breaker may fall back to a reduced-resolution
        render (``degraded_scale`` divides each frame dimension).  With
        this off, uncached requests under an open breaker are shed with
        reason ``saturated``.
    tenant_max_entries / tenant_max_bytes:
        Per-tenant quota on serving-cache residency (0 = unlimited).
        A tenant exceeding its quota evicts its *own* least-recent
        entries; other tenants' entries are never touched.
    slots:
        Backend slots for sticky session affinity (0 = one shared
        pool).  With ``slots > 0`` the server routes every request
        through a :class:`~repro.serving.sessions.SlotPool` — a session's
        frames serialize through one pinned slot; a dead slot's sessions
        re-pin to survivors.
    speculation_budget:
        Maximum concurrent speculative next-frame renders (0 disables
        speculation).  Speculative work only launches when the demand
        queue is empty — idle backend capacity, never capacity demand
        traffic is waiting for.
    session_log_frames:
        Per-session frame ring bound, payloads included (0 = unbounded;
        the chaos suite audits every frame, the wire endpoint replays it).
    """

    workers: int = 2
    queue_limit: int = 64
    default_deadline_s: float = 0.0
    shed_on_predicted_miss: bool = True
    ewma_alpha: float = 0.2
    breaker_failures: int = 3
    breaker_reset_s: float = 5.0
    allow_degraded: bool = True
    degraded_scale: int = 4
    tenant_max_entries: int = 0
    tenant_max_bytes: int = 0
    slots: int = 0
    speculation_budget: int = 0
    session_log_frames: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ServingError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.default_deadline_s < 0:
            raise ServingError(
                f"default_deadline_s must be >= 0, got {self.default_deadline_s}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ServingError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.breaker_failures < 1:
            raise ServingError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_reset_s <= 0:
            raise ServingError(
                f"breaker_reset_s must be positive, got {self.breaker_reset_s}"
            )
        if self.degraded_scale < 1:
            raise ServingError(
                f"degraded_scale must be >= 1, got {self.degraded_scale}"
            )
        if self.tenant_max_entries < 0:
            raise ServingError(
                f"tenant_max_entries must be >= 0, got {self.tenant_max_entries}"
            )
        if self.tenant_max_bytes < 0:
            raise ServingError(
                f"tenant_max_bytes must be >= 0, got {self.tenant_max_bytes}"
            )
        if self.slots < 0:
            raise ServingError(f"slots must be >= 0, got {self.slots}")
        if self.speculation_budget < 0:
            raise ServingError(
                f"speculation_budget must be >= 0, got {self.speculation_budget}"
            )
        if self.session_log_frames < 0:
            raise ServingError(
                f"session_log_frames must be >= 0, got {self.session_log_frames}"
            )
