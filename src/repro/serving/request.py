"""Requests, responses and the canonical coalescing key.

A :class:`Request` is what a session submits: the tenant-visible
parameters of one rendered frame (scene, camera, size, timestep, ...)
and routing metadata (tenant, session, deadline).
:func:`request_key` maps it to a deterministic :mod:`repro.cache`
digest with one crucial property split:

* **everything that can change the produced bytes is in the key** —
  every entry of ``params`` (hashed canonically, so dict
  insertion order is irrelevant and numpy payloads hash by content);
* **nothing else is** — tenant, session and deadline are deliberately
  excluded, so two different tenants asking for the same frame collapse
  to one in-flight computation whose result fans out to both (the
  yProv4DV insight: identical provenance digests are the natural
  coalescing key).

The key also inherits the cache layer's ``CODE_SALT`` version binding —
its one salt: a code upgrade changes every key, so stale frames from
older kernels can never be fanned out to new requests.  Nothing else
enters it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.cache.keys import cache_key

#: responses: full-fidelity / refused / reduced-fidelity / failed
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class Request:
    """One unit of session traffic.

    ``params`` is the tenant-visible specification of the desired
    product; any value the canonical hasher accepts (scalars, strings,
    lists, dicts, numpy arrays, cameras, ...) is allowed.
    """

    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    session: str = ""
    deadline_s: Optional[float] = None

    def with_params(self, **updates: Any) -> "Request":
        """A copy with some ``params`` entries replaced (test helper)."""
        merged = dict(self.params)
        merged.update(updates)
        return replace(self, params=merged)


def request_key(request: Request) -> str:
    """Canonical digest of *request*'s output-determining fields.

    Equal keys mean byte-identical products, so the server coalesces on
    this and the serving cache stores under it.  Tenant, session and
    deadline never enter the key (see module docstring).
    """
    return cache_key("serving.request", dict(request.params))


@dataclass
class Response:
    """What every submission gets back — overload included.

    ``status`` is one of ``ok`` (full-fidelity product), ``shed``
    (refused: ``reason`` says why — ``queue_full``, ``deadline``,
    ``expired``, ``closed``, ``cancelled``), ``degraded``
    (reduced-fidelity product served while the breaker is open;
    ``source`` says whether it came from ``cache`` or a degraded
    ``render``) or ``error`` (the backend raised; ``reason`` carries
    the repr).
    """

    status: str
    payload: Optional[bytes] = None
    digest: str = ""
    source: str = "render"  # "render" | "cache" | "speculative"
    reason: str = ""
    tenant: str = ""
    latency_s: float = 0.0
    coalesced: bool = False

    @property
    def completed(self) -> bool:
        """Whether the caller received a product (possibly degraded)."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    def fan_out(self, tenant: str, latency_s: float, coalesced: bool) -> "Response":
        """A per-waiter copy of a shared result (payload bytes shared)."""
        return replace(
            self, tenant=tenant, latency_s=latency_s, coalesced=coalesced
        )
