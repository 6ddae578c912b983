"""Exception hierarchy for the ``repro`` package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without accidentally swallowing programming errors
(`TypeError`, `KeyError`, ...) from their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CDMSError(ReproError):
    """Raised by the climate data management subsystem (:mod:`repro.cdms`)."""


class NotFoundError(CDMSError):
    """A dataset source, container or variable that was named does not exist."""


class StreamingError(CDMSError):
    """Raised by the out-of-core streaming layer (:mod:`repro.streaming`).

    Covers unreadable or unverifiable chunks after the retry budget is
    exhausted, bad streaming configurations, and v2 container layout
    violations.  Subclasses :class:`CDMSError` so callers treating the
    streaming path as "just storage" keep working; the animation loop
    catches it to degrade instead of aborting.
    """


class ChunkCorruptionError(StreamingError):
    """A chunk's payload failed content-digest verification.

    Raised after reads and retries have been exhausted; the offending
    chunk is quarantined by the reader until a later read heals it.
    """


class CDATError(ReproError):
    """Raised by the climate data analysis toolkit (:mod:`repro.cdat`)."""


class ESGError(ReproError):
    """Raised by the simulated Earth System Grid (:mod:`repro.esg`)."""


class RenderingError(ReproError):
    """Raised by the software rendering substrate (:mod:`repro.rendering`)."""


class WorkflowError(ReproError):
    """Raised by the workflow engine (:mod:`repro.workflow`)."""


class ModuleExecutionError(WorkflowError):
    """A workflow module raised during execution.

    Wraps the original exception and records the module responsible, so
    the executor (and the provenance log) can attribute failures.
    """

    def __init__(self, module_name: str, original: BaseException):
        self.module_name = module_name
        self.original = original
        super().__init__(f"module {module_name!r} failed: {original!r}")


class ResilienceError(ReproError):
    """Raised by the fault-tolerance subsystem (:mod:`repro.resilience`).

    Covers exhausted retry budgets, open circuit breakers and invalid
    policy parameters.
    """


class InjectedFault(ResilienceError):
    """An artificial failure fired by the fault-injection registry.

    Tests and benchmarks arm faults at named sites
    (:mod:`repro.resilience.faults`); instrumented code raises this to
    exercise a recovery path deterministically.
    """


class ProvenanceError(ReproError):
    """Raised by the provenance subsystem (:mod:`repro.provenance`)."""


class SpreadsheetError(ReproError):
    """Raised by the spreadsheet model (:mod:`repro.spreadsheet`)."""


class HyperwallError(ReproError):
    """Raised by the hyperwall distributed framework (:mod:`repro.hyperwall`)."""


class DV3DError(ReproError):
    """Raised by the DV3D plot package (:mod:`repro.dv3d`)."""


class CacheError(ReproError):
    """Raised by the result cache (:mod:`repro.cache`).

    Covers bad configurations and values that cannot be canonically
    hashed — never I/O failures of the disk tier, which degrade to
    cache misses instead of failing the request they would serve.
    """


class ServingError(ReproError):
    """Raised by the multi-tenant serving layer (:mod:`repro.serving`).

    Covers bad configurations and lifecycle misuse (submitting to a
    closed server).  Overload is never an exception: shed and expired
    requests come back as ``Response(status="shed")`` so callers always
    get an answer they can account for.
    """


class RequestError(ServingError):
    """A render request failed to parse: an unknown key, or a size,
    time step or angle that is not a number of the right kind.

    The request is at fault, not the backend, so the serving tier
    answers it ``status="error"`` and feeds no circuit breaker with it.
    """


class WireError(ServingError):
    """Base class for framed-socket protocol failures (:mod:`repro.util.framing`).

    Every defect a remote peer can present — truncation, corruption,
    version skew, malformed framing — maps to a *typed* subclass so
    endpoints can distinguish "reconnect and resume" (truncation,
    corruption) from "refuse the peer" (version skew).
    """


class WireFormatError(WireError):
    """A frame violated the wire format (bad magic, absurd lengths,
    malformed header JSON)."""


class WireVersionError(WireError):
    """The peer speaks a wire-protocol version this endpoint does not."""


class WireTruncatedError(WireError):
    """The stream ended (or the buffer ran out) mid-frame."""


class WireCorruptionError(WireError):
    """A frame's payload bytes do not match its stamped content digest."""
