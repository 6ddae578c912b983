"""The asyncio session server: batching, coalescing, shedding, degrading.

:class:`ServingServer` is the traffic-facing front door over the render
substrate.  Many concurrent sessions ``await submit(request)``; the
server:

1. **coalesces** — requests whose canonical digests
   (:func:`~repro.serving.request.request_key`) match an in-flight
   computation attach to it instead of executing again; the single
   result fans out to every waiter byte-identically;
2. **serves from cache** — a digest already in the serving cache
   (:mod:`repro.cache`) returns immediately, charged to the tenant's
   quota recency;
3. **admits or sheds** — a bounded queue plus deadline-aware rejection
   (:mod:`repro.serving.admission`); overload produces
   ``Response(status="shed")``, never unbounded queueing;
4. **executes** — one worker task drains the queue, one item at a
   time; every backend call runs on the serving loop itself, so a
   render holds the loop until it returns.
   ``BREAKER_FAILURES`` consecutive backend failures open a circuit
   breaker (:mod:`repro.resilience`) for ``BREAKER_RESET_S``, under
   which requests are served stale from cache or re-rendered at reduced
   resolution instead of hammering the failing backend.  A request the
   backend refuses as malformed (:class:`~repro.util.errors.RequestError`)
   is an ``error`` that is no backend failure: it feeds the breaker
   nothing and gives back a half-open probe it took;
5. **accounts** — per-tenant quota eviction through
   :class:`~repro.serving.quota.QuotaLedger` and full :mod:`repro.obs`
   instrumentation.

Observability (all zero-cost when recording is off):

* counters — ``serving.requests`` and ``serving.coalesced`` (tenant);
  ``serving.outcome`` (tenant, status, source, reason), counted once
  per request from its final :class:`Response`, and
  ``serving.speculative.outcome`` (tenant, outcome), counted once per
  speculation, so they partition ``serving.requests`` and
  ``serving.speculative.started`` (labels: ``docs/observability.md``);
* gauges — ``serving.queue.depth``, ``serving.inflight`` (distinct
  coalescing keys currently executing or queued);
* histograms — ``serving.latency.seconds`` (status) per request;
* spans — one tree per request, rooted at ``serving.request`` (tenant,
  session, key; its id is the frame's trace id), with
  ``serving.cache.lookup``, ``serving.admission`` and
  ``serving.render.wait`` (or ``serving.coalesced.wait``) under it and
  the render's executor and kernel spans beside them.  A
  speculative render is its own tree, rooted at ``serving.speculate``.

Determinism for tests: the clock is injectable (deadlines and the
breaker share it), the ``serving.execute`` fault site fires inside the
dispatch path, and ``start()`` may be deferred — submissions enqueue
and coalesce without any worker running, so "N identical requests,
exactly one execution" is assertable without racing the event loop.

Session-aware serving (``docs/session-serving.md`` has the long form):

* **one record per session** — under every config a request naming a
  ``session`` lands in its :class:`~repro.serving.sessions.SessionState`:
  params in the history, the served frame (its ``FRAME`` header, the
  payload hashed once, the payload bytes) in the ring the wire endpoint
  sends and replays from — so in-process callers that pass a ``session``
  keep up to ``config.session_log_frames`` payloads alive per session.
  A session belongs to the tenant that opened it; naming it as another
  tenant raises :class:`~repro.util.errors.ServingError`;
* **one backend** — every execution, demand or speculative, is a
  direct call of the one backend on the serving loop, one at a time;
* **speculative rendering** — with ``speculation_budget > 0`` the
  server pre-renders an animating/orbiting session's predicted next
  frame on idle capacity through the same backend path: it registers as
  an in-flight key and lands in the serving cache.  A misprediction is
  cancelled, or audited back out (``serving.speculative.waste``).
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.cache.store import ResultCache
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.serving.admission import REASON_CANCELLED, REASON_CLOSED, REASON_EXPIRED, AdmissionController
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
from repro.serving.sessions import SessionFrame, SessionRegistry, SessionState, Speculation
from repro.serving.speculative import NextFramePredictor
from repro.util.errors import RequestError, ServingError

#: the backend contract: ``(request, degraded) -> bytes``
Backend = Callable[[Request, bool], bytes]

#: consecutive backend failures that open the circuit breaker
BREAKER_FAILURES = 3
#: seconds an open breaker waits before half-open probing
BREAKER_RESET_S = 5.0


@dataclass
class _Inflight:
    """One coalescing key's in-flight computation."""

    future: "asyncio.Future[Response]"
    waiters: int = 1


@dataclass
class _WorkItem:
    """One admitted queue entry (the first request of its key)."""

    key: str
    request: Request
    deadline_at: Optional[float] = None
    #: the submitting task's context: the worker task renders the item
    #: in it, so a span open there parents the render's spans
    context: contextvars.Context = field(default_factory=contextvars.copy_context)


class ServingServer:
    """The multi-tenant async front door (see module docstring).

    Parameters
    ----------
    backend:
        ``(request, degraded) -> bytes``; called on the serving loop,
        one call at a time, and the loop waits while it renders.
        ``degraded=True`` asks for a cheaper
        reduced-fidelity product (the breaker-open fallback).
    config:
        :class:`~repro.serving.config.ServingConfig` bounds.
    cache:
        The serving tier's :class:`~repro.cache.store.ResultCache`;
        without one nothing is served from cache.  A cache reaches the
        server only this way.
    clock:
        Injectable monotonic clock shared by deadlines and the breaker.
    """

    def __init__(
        self,
        backend: Backend,
        config: Optional[ServingConfig] = None,
        cache: Optional[ResultCache] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self.clock = clock
        self.admission = AdmissionController(self.config, clock=clock)
        self.quota = QuotaLedger(
            self.config.tenant_max_entries, self.config.tenant_max_bytes
        )
        self.breaker = CircuitBreaker(
            failure_threshold=BREAKER_FAILURES,
            reset_timeout=BREAKER_RESET_S,
            clock=clock,
            name="serving.kernels",
        )
        self.backend = backend
        self.cache = cache
        self._queue: "asyncio.Queue[Optional[_WorkItem]]" = asyncio.Queue()
        self._inflight: Dict[str, _Inflight] = {}
        self._worker: Optional["asyncio.Task[None]"] = None
        self._closed = False
        self.sessions = SessionRegistry()
        self._predictor = NextFramePredictor()
        self._speculations: Dict[str, "asyncio.Task[str]"] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ServingServer":
        """Spawn the worker task (idempotent)."""
        if self._closed:
            raise ServingError("cannot start a closed ServingServer")
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._worker_loop(), name="repro-serving-worker"
            )
        return self

    async def aclose(self) -> None:
        """Drain queued work, stop the worker, resolve stragglers.

        Safe to call repeatedly and from ``finally`` blocks: a failed
        test that closes the server leaves no worker task and no
        unresolved submission behind.
        """
        if self._closed:
            return
        self._closed = True
        for task in list(self._speculations.values()):
            task.cancel()
        if self._speculations:
            await asyncio.gather(
                *self._speculations.values(), return_exceptions=True
            )
        if self._worker is not None:
            self._queue.put_nowait(None)
            await asyncio.gather(self._worker, return_exceptions=True)
            self._worker = None
        for key, entry in list(self._inflight.items()):
            if not entry.future.done():
                entry.future.set_result(
                    Response(STATUS_SHED, digest=key, reason=REASON_CLOSED)
                )
            self._inflight.pop(key, None)

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- the front door ------------------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Submit one request; always returns a :class:`Response`.

        Overload (or a submitter cancelled while it waits) comes back
        as ``status="shed"`` with a reason, backend failures as
        ``status="error"``; only lifecycle misuse and naming another
        tenant's session raise, before the request is counted.  For
        session-carrying requests the submission also feeds the
        session's history and frame ring and reconciles any outstanding
        speculation (hit, or cancelled-and-audited waste).
        """
        if self._closed:
            raise ServingError("ServingServer is closed")
        t0 = self.clock()
        key = request_key(request)
        state = self.sessions.observe(request.session, request.tenant) if request.session else None
        obs.counter("serving.requests", tenant=request.tenant)
        response: Optional[Response] = None
        try:
            with obs.span(
                "serving.request", tenant=request.tenant, session=request.session, key=key
            ):
                if state is not None:
                    self._reconcile_speculation(state, key)
                    state.observe(request.params)
                response = await self._serve(request, key, t0)
                if state is not None:
                    state.log(key, response, self.config.session_log_frames)
        finally:
            # every counted request ends here, in exactly one outcome
            if response is None:  # cancelled while it waited
                response = Response(STATUS_SHED, digest=key, reason=REASON_CANCELLED,
                                    tenant=request.tenant, latency_s=self.clock() - t0)
            if obs.enabled():
                obs.counter(
                    "serving.outcome", tenant=request.tenant, status=response.status,
                    source=response.source if response.completed else "",
                    reason=response.reason if response.status == STATUS_SHED else "",
                )
                obs.histogram("serving.latency.seconds", response.latency_s, status=response.status)
        # speculation is not part of this frame: it starts once its span closed
        if state is not None and response.completed and not self._closed:
            self._maybe_speculate(state, request)
        return response

    async def _serve(self, request: Request, key: str, t0: float) -> Response:
        """The pre-session serving pipeline: coalesce / cache / admit / queue."""
        entry = self._inflight.get(key)
        if entry is not None:  # coalesce onto the in-flight computation
            entry.waiters += 1
            obs.counter("serving.coalesced", tenant=request.tenant)
            with obs.span("serving.coalesced.wait"):
                base = await entry.future
            return base.fan_out(request.tenant, self.clock() - t0, coalesced=True)

        if self.cache is not None:
            with obs.span("serving.cache.lookup"):
                found, payload = self.cache.get(key, site="serving")
            if found:
                if self.quota.enforcing:
                    self.quota.touch(request.tenant, key)
                return Response(
                    STATUS_OK, payload=payload, digest=key, source="cache",
                    tenant=request.tenant, latency_s=self.clock() - t0,
                )

        with obs.span("serving.admission"):
            admitted, reason = self.admission.admit(request, self._queue.qsize())
        if not admitted:
            return Response(
                STATUS_SHED, digest=key, reason=reason,
                tenant=request.tenant, latency_s=self.clock() - t0,
            )

        loop = asyncio.get_running_loop()
        entry = _Inflight(future=loop.create_future())
        self._inflight[key] = entry
        self._queue.put_nowait(
            _WorkItem(
                key=key,
                request=request,
                deadline_at=self.admission.deadline_of(request),
            )
        )
        if obs.enabled():
            obs.gauge("serving.queue.depth", self._queue.qsize())
            obs.gauge("serving.inflight", len(self._inflight))
        with obs.span("serving.render.wait"):
            base = await entry.future
        return base.fan_out(request.tenant, self.clock() - t0, coalesced=False)

    # -- workers -------------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            self._dispatch(item)
            if obs.enabled():
                obs.gauge("serving.queue.depth", self._queue.qsize())
            # ``get`` on a non-empty queue does not suspend: yield once, so
            # the frame just resolved reaches its waiters (and the wire)
            # before the next item renders
            await asyncio.sleep(0)

    def _dispatch(self, item: _WorkItem) -> None:
        entry = self._inflight.get(item.key)
        try:
            response = self._produce(item)
        except Exception as exc:  # noqa: BLE001 - a failed render, or anything: the loop survives
            response = Response(STATUS_ERROR, digest=item.key, reason=repr(exc))
        if entry is not None and not entry.future.done():
            # resolve, then retire the key with no await in between, so
            # no submission can attach to an already-resolved entry
            entry.future.set_result(response)
            self._inflight.pop(item.key, None)
            if obs.enabled():
                obs.gauge("serving.inflight", len(self._inflight))

    def _produce(self, item: _WorkItem) -> Response:
        request = item.request
        if item.deadline_at is not None and self.clock() > item.deadline_at:
            return Response(STATUS_SHED, digest=item.key, reason=REASON_EXPIRED)

        if self.breaker.allow():
            started = time.perf_counter()
            try:
                faults.check("serving.execute", tenant=request.tenant)
                payload = item.context.run(self.backend, request, False)
            except RequestError:  # the request's fault: no breaker outcome
                self.breaker.release()
                raise
            except Exception:  # feeds the breaker; _dispatch answers it
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            self.admission.observe_service(time.perf_counter() - started)
            self._store(request.tenant, item.key, payload)
            return Response(
                STATUS_OK, payload=payload, digest=item.key, source="render"
            )

        # breaker open: the backend is failing — degrade
        if self.cache is not None:
            found, payload = self.cache.get(item.key, site="serving.breaker")
            if found:
                return Response(
                    STATUS_DEGRADED, payload=payload, digest=item.key, source="cache"
                )
        payload = item.context.run(self.backend, request, True)
        return Response(
            STATUS_DEGRADED, payload=payload, digest=item.key, source="render"
        )

    # -- sessions and speculation --------------------------------------------

    async def replay(
        self, session: str, tenant: str, resume_from: int
    ) -> Tuple[List[SessionFrame], int]:
        """*session*'s ring from *resume_from* on, and its next seq — a
        coroutine, so a caller reads the ring on the loop that writes it."""
        state = self.sessions.observe(session, tenant)
        return [f for f in state.frames if f.seq >= resume_from], state.next_seq

    def _reconcile_speculation(self, state: SessionState, key: str) -> None:
        """Judge the session's outstanding speculation against reality.

        A hit leaves the pre-rendered frame where the demand path will
        find it (in-flight key or cache entry); a misprediction cancels
        a render that has not started (a started one runs to its end in
        one step of the loop) and drops its in-flight key at once, so
        nothing can attach to it, or audits an already-stored entry back
        out of the cache, so wrong guesses leave no cache pollution.
        """
        spec = state.speculation
        if spec is None:
            return
        state.speculation = None
        if spec.key == key:
            obs.counter("serving.speculative.hit", tenant=state.tenant)
            return
        obs.counter("serving.speculative.waste", tenant=state.tenant)
        entry = self._inflight.get(spec.key)
        if (
            spec.task is not None
            and not spec.task.done()
            and (entry is None or entry.waiters == 0)
        ):
            spec.task.cancel()
            self._inflight.pop(spec.key, None)
        elif spec.stored and self.cache is not None:
            self.cache.delete(spec.key, site="serving.speculative.waste")

    def _maybe_speculate(self, state: SessionState, request: Request) -> None:
        """Launch a speculative render of the session's predicted next frame.

        Only on idle capacity (an empty demand queue), within the
        speculation budget, with running workers, and only when the
        predictor sees a constant-stride gesture.
        """
        config = self.config
        if config.speculation_budget <= 0 or self._worker is None:
            return
        if len(self._speculations) >= config.speculation_budget:
            return
        if not self._queue.empty():
            return
        predicted = self._predictor.predict(state.history)
        if predicted is None:
            return
        spec_request = replace(request, params=predicted)
        spec_key = request_key(spec_request)
        if spec_key in self._inflight:
            return
        if self.cache is not None:
            found, _ = self.cache.get(spec_key, site="serving.speculative.probe")
            if found:
                return  # the predicted frame is already a guaranteed hit
        loop = asyncio.get_running_loop()
        self._inflight[spec_key] = _Inflight(future=loop.create_future(), waiters=0)
        spec = Speculation(key=spec_key)
        # an empty context: the render's spans form their own tree, outside
        # the request's and any span its submitter holds open
        task = contextvars.Context().run(
            loop.create_task,
            self._speculate(spec_request, spec_key, spec),
            name=f"repro-serving-speculate-{spec_key[:8]}",
        )
        task.add_done_callback(
            lambda done: self._settle_speculation(request.tenant, spec_key, done)
        )
        spec.task = task
        state.speculation = spec
        self._speculations[spec_key] = task
        obs.counter("serving.speculative.started", tenant=request.tenant)
        if obs.enabled():
            obs.gauge("serving.speculative.inflight", len(self._speculations))

    async def _speculate(
        self, request: Request, key: str, spec: Speculation
    ) -> str:
        """Render one predicted frame; store it where demand will look.
        Returns the status its in-flight entry resolved with."""
        try:
            with obs.span(
                "serving.speculate", tenant=request.tenant, session=request.session, key=key
            ):
                payload = self.backend(request, False)
        except Exception as exc:  # noqa: BLE001 - speculation must never crash the loop
            response = Response(STATUS_ERROR, digest=key, reason=repr(exc))
        else:
            self._store(request.tenant, key, payload)
            spec.stored = True
            response = Response(STATUS_OK, payload=payload, digest=key, source="speculative")
        entry = self._inflight.pop(key, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(response)
        return response.status

    def _settle_speculation(
        self, tenant: str, key: str, task: "asyncio.Task[str]"
    ) -> None:
        """Free a finished speculation's budget slot and count its outcome.
        A cancelled task never ran: its in-flight key was dropped when it
        was cancelled, or ``aclose`` resolves it."""
        self._speculations.pop(key, None)
        if obs.enabled():
            outcome = "cancelled" if task.cancelled() else (
                "rendered" if task.result() == STATUS_OK else "error")
            obs.counter("serving.speculative.outcome", tenant=tenant, outcome=outcome)
            obs.gauge("serving.speculative.inflight", len(self._speculations))

    async def drain_speculation(self) -> None:
        """Wait for every in-flight speculative render (test/bench hook)."""
        tasks = [task for task in self._speculations.values() if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- cache / quota -------------------------------------------------------

    def _store(self, tenant: str, key: str, payload: bytes) -> None:
        cache = self.cache
        if cache is None:
            return
        cache.put(key, payload, site="serving")
        if not self.quota.enforcing:
            return  # no bound to enforce: nothing would ever leave the ledger
        for evicted_key in self.quota.charge(
            tenant, key, len(payload) if payload else 0
        ):
            cache.delete(evicted_key, site="serving.quota")

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Live snapshot for dashboards and tests."""
        return {
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "breaker": self.breaker.state,
            "ewma_service_s": self.admission.ewma_service_s,
            "quota": self.quota.stats(),
            "closed": self._closed,
            "sessions": len(self.sessions),
            "speculations_inflight": len(self._speculations),
        }
