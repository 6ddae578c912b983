"""Configuration for the multi-tenant serving layer.

A :class:`ServingConfig` holds the bounds a caller sets on one server:
how many backend slots render, how much speculative work may run, how
long the admission queue may grow, and how much a tenant or a session
may keep.  Everything else the server tunes — the service-time EWMA,
the breaker thresholds, the degraded frame scale — is a module constant
next to the code that uses it.  Limits are validated up front so a
misconfigured deployment fails at construction, not under load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ServingError


@dataclass(frozen=True)
class ServingConfig:
    """Bounds of one :class:`~repro.serving.server.ServingServer`.

    Parameters
    ----------
    slots:
        Backend slots: routes, not threads.  Every execution is routed
        to the :class:`~repro.serving.sessions.SlotPool` slot the
        rendezvous router pins its session (or, sessionless, its request
        key) to and runs on the serving loop; a dead slot's sessions
        re-pin to survivors.  More slots render nothing in parallel: one
        worker renders one item at a time, and admission's wait
        estimate does not divide by ``slots``.
    speculation_budget:
        Maximum concurrent speculative next-frame renders (0 disables
        speculation).  Speculative work only launches when the demand
        queue is empty — idle backend capacity, never capacity demand
        traffic is waiting for.
    queue_limit:
        Maximum queued-but-not-executing requests.  A full queue sheds
        new non-coalescing requests with reason ``queue_full``.
    tenant_max_entries / tenant_max_bytes:
        Per-tenant quota on serving-cache residency (0 = unlimited).
        A tenant exceeding its quota evicts its *own* least-recent
        entries; other tenants' entries are never touched.
    session_log_frames:
        Per-session frame ring bound, payloads included (0 = unbounded;
        the chaos suite audits every frame, the wire endpoint replays it).
    """

    slots: int = 2
    speculation_budget: int = 0
    queue_limit: int = 64
    tenant_max_entries: int = 0
    tenant_max_bytes: int = 0
    session_log_frames: int = 64

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ServingError(f"slots must be >= 1, got {self.slots}")
        if self.speculation_budget < 0:
            raise ServingError(
                f"speculation_budget must be >= 0, got {self.speculation_budget}"
            )
        if self.queue_limit < 1:
            raise ServingError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.tenant_max_entries < 0:
            raise ServingError(
                f"tenant_max_entries must be >= 0, got {self.tenant_max_entries}"
            )
        if self.tenant_max_bytes < 0:
            raise ServingError(
                f"tenant_max_bytes must be >= 0, got {self.tenant_max_bytes}"
            )
        if self.session_log_frames < 0:
            raise ServingError(
                f"session_log_frames must be >= 0, got {self.session_log_frames}"
            )
