"""Multi-tenant async serving over the exploration substrate.

The paper's workflow is one scientist at one workstation (or one
hyperwall); this package is the step toward *many* concurrent sessions
sharing one render substrate.  An asyncio :class:`ServingServer` fronts
:mod:`repro.app` / :mod:`repro.spreadsheet` with:

* **request coalescing** — identical :mod:`repro.cache` digests
  collapse to one in-flight computation, fanned out byte-identically
  (:mod:`repro.serving.request`);
* **admission control + load shedding** — bounded queues and
  deadline-aware rejection (:mod:`repro.serving.admission`), and
  graceful degradation through a :mod:`repro.resilience` circuit
  breaker (cached/low-res frames while the kernel path is failing);
* **per-tenant fairness** — cache-residency quotas so one noisy tenant
  cannot evict another's working set (:mod:`repro.serving.quota`);
* **observability** — queue depth, coalesced fan-out, one outcome per
  request and latency histograms via :mod:`repro.obs`;
* **session-aware serving** — one record per session, its request
  history and served-frame ring (:mod:`repro.serving.sessions`), every
  render (a speculative one too) a call of the one backend on the
  serving loop, speculative next-frame rendering
  from per-session request history (:mod:`repro.serving.speculative`),
  and a versioned digest-stamped wire protocol with
  reconnect-and-resume (:mod:`repro.serving.wire`,
  :mod:`repro.serving.endpoint`).

``benchmarks/e2e`` (the ``serve_sessions`` workload) drives this layer
through the wire with :class:`AppBackend` behind it.
"""

from repro.serving.admission import (
    REASON_CANCELLED,
    REASON_CLOSED,
    REASON_DEADLINE,
    REASON_EXPIRED,
    REASON_QUEUE_FULL,
    AdmissionController,
)
from repro.serving.backend import AppBackend
from repro.serving.config import ServingConfig
from repro.serving.quota import QuotaLedger
from repro.serving.request import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    Request,
    Response,
    request_key,
)
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.serving.server import ServingServer
from repro.serving.sessions import SessionFrame, SessionRegistry, SessionState
from repro.serving.speculative import NextFramePredictor
from repro.util.framing import WIRE_VERSION, WireFrame, decode_frame, encode_frame

__all__ = [
    "AdmissionController",
    "AppBackend",
    "NextFramePredictor",
    "QuotaLedger",
    "REASON_CANCELLED",
    "REASON_CLOSED",
    "REASON_DEADLINE",
    "REASON_EXPIRED",
    "REASON_QUEUE_FULL",
    "Request",
    "Response",
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "ServingConfig",
    "ServingServer",
    "SessionFrame",
    "SessionRegistry",
    "SessionState",
    "WIRE_VERSION",
    "WireFrame",
    "WireSessionClient",
    "WireSessionServer",
    "decode_frame",
    "encode_frame",
    "request_key",
]
