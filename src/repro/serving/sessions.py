"""Sticky session affinity: routers, backend slots, session state.

The paper's interaction loop is exploratory — a user orbits a camera or
animates timesteps — so consecutive requests from one session are
highly correlated.  A stateless front door re-pays scene lookup and
cache admission per frame; this module makes the correlation pay
instead:

* :class:`AffinityRouter` — deterministic rendezvous (highest-random-
  weight) hashing from ``SessionId`` to a backend slot.  The mapping
  depends only on the *current* live-slot membership, never on the
  order joins and leaves happened in, and removing a slot moves only
  that slot's sessions (the minimal-disruption property the hypothesis
  suite pins);
* :class:`SlotPool` — the routes of the server's one execution path:
  every backend call is routed to one of ``slots`` slots, a pinned
  session's to its slot (a sessionless request's by its request key),
  and runs on the caller's thread, the serving loop.  A slot is a
  route, not a thread: every slot calls the pool's one backend, and
  what a session keeps warm lives below the slot, on its live cell: the
  scene and last frame :class:`~repro.dv3d.cell.DV3DCell` keeps and
  the volume's ``ImageData._derived`` caches.
  Slots can die (a crash, or the armed ``serving.slot`` fault site);
  the pool retires them and the router re-pins;
* :class:`SessionRegistry` / :class:`SessionState` — the one record of
  a session, owned by the tenant that opened it: request history (the
  speculative predictor's input), pin, and the :class:`SessionFrame`
  ring — each served frame as the wire advertises it (sequence number,
  status, provenance, payload digest) plus its payload, which is what
  the wire endpoint sends and replays.

Observability: ``serving.sessions.opened`` / ``serving.sessions.repinned``
counters and the ``serving.sessions.active`` gauge.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.resilience import faults
from repro.serving.request import Request, Response
from repro.util.errors import InjectedFault, ServingError, SlotDeadError

#: sessions are plain opaque strings (Request.session)
SessionId = str

#: request params remembered per session — the speculative predictor's
#: input, so at least :class:`~repro.serving.speculative.NextFramePredictor`'s
#: three-request stride window
HISTORY_WINDOW = 8


def _score(slot_id: str, session_id: str) -> int:
    """Deterministic rendezvous weight of (slot, session).

    sha256 over an unambiguous encoding — stable across processes and
    Python hash seeds, which is what makes re-pinning reproducible in
    a multi-process deployment.
    """
    payload = b"repro.serving.affinity\x00" + slot_id.encode() + b"\x00" + session_id.encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class AffinityRouter:
    """Rendezvous-hash router: session id -> live backend slot.

    The mapping is a pure function of (session, live slot set): any
    interleaving of joins and leaves that reaches the same membership
    yields the same routing table, and retiring a slot re-routes only
    the sessions that were pinned to it.
    """

    def __init__(self, slots: Sequence[str] = ()) -> None:
        self._lock = threading.Lock()
        self._slots: List[str] = []
        for slot in slots:
            self.join(slot)

    @property
    def slots(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._slots))

    def join(self, slot_id: str) -> None:
        slot_id = str(slot_id)
        if not slot_id:
            raise ServingError("slot id must be a non-empty string")
        with self._lock:
            if slot_id not in self._slots:
                self._slots.append(slot_id)

    def leave(self, slot_id: str) -> None:
        with self._lock:
            if slot_id in self._slots:
                self._slots.remove(slot_id)

    def slot_for(self, session_id: SessionId) -> str:
        """The live slot *session_id* is pinned to (raises when empty)."""
        with self._lock:
            if not self._slots:
                raise ServingError("affinity router has no live slots")
            return max(
                self._slots, key=lambda slot: (_score(slot, session_id), slot)
            )


@dataclass(frozen=True)
class SessionFrame:
    """One served frame in a session's log (``FrameRecord`` style).

    ``source`` says who produced the pixels: ``render`` (demand),
    ``cache`` (serving-cache hit), ``speculative`` (a pre-rendered
    next-frame the session then asked for); a frame without pixels
    (shed, error) has ``reason`` instead.  ``digest`` hashes ``payload``.
    """

    seq: int
    status: str
    source: str
    reason: str
    key: str
    digest: str
    slot: str = ""
    payload: bytes = b""

    def meta(self) -> Dict[str, Any]:
        """The ``FRAME`` header this record goes on the wire under."""
        names = ("status", "source", "reason", "key", "digest", "seq")
        return {name: getattr(self, name) for name in names}


class SessionState:
    """Everything the server remembers about one session.

    Not thread-safe on its own; the owning :class:`SessionRegistry`
    hands out states under the caller's single-submission discipline
    (the asyncio event loop serializes ``submit`` bookkeeping).
    """

    def __init__(self, session_id: SessionId, tenant: str) -> None:
        self.id = session_id
        self.tenant = tenant
        #: most-recent request params, oldest first
        self.history: List[Mapping[str, Any]] = []
        #: the frame ring: the last ``session_log_frames`` served frames
        self.frames: List[SessionFrame] = []
        #: the sequence number the next served frame gets
        self.next_seq = 0
        #: the slot this session's last request ran on (router decision)
        self.slot: str = ""
        #: slots this session has been pinned to, in order (re-pin audit)
        self.slot_history: List[str] = []
        #: the one outstanding speculation for this session, if any
        self.speculation: Optional["Speculation"] = None

    def observe(self, params: Mapping[str, Any]) -> None:
        self.history.append(dict(params))
        del self.history[:-HISTORY_WINDOW]

    def pin(self, slot_id: str) -> None:
        if slot_id != self.slot:
            self.slot = slot_id
            self.slot_history.append(slot_id)

    def log(self, key: str, response: Response, bound: int) -> None:
        """Account one served frame — the one place its payload is
        hashed — and keep the last *bound* (0: all)."""
        payload = response.payload or b""
        self.frames.append(
            SessionFrame(
                seq=self.next_seq,
                status=response.status,
                source=response.source if response.completed else "",
                reason=response.reason,
                key=key,
                digest=hashlib.sha256(payload).hexdigest(),
                slot=self.slot,
                payload=payload,
            )
        )
        self.next_seq += 1
        if bound:
            del self.frames[:-bound]


@dataclass
class Speculation:
    """One in-flight (or completed) speculative next-frame render."""

    key: str
    task: Optional[Any] = None  # asyncio.Task while rendering
    stored: bool = False  # payload reached the serving cache


class SessionRegistry:
    """Session id -> :class:`SessionState`, with open/active accounting."""

    def __init__(self) -> None:
        self._states: Dict[SessionId, SessionState] = {}

    def observe(self, session_id: SessionId, tenant: str) -> SessionState:
        """*session_id*'s state, opened for *tenant* on first use.

        A session belongs to the tenant that opened it: naming it as
        another tenant raises :class:`ServingError`, so nobody reads or
        appends to another tenant's frame ring.
        """
        state = self._states.get(session_id)
        if state is not None and state.tenant != tenant:
            raise ServingError(f"session {session_id!r} belongs to another tenant")
        if state is None:
            state = SessionState(session_id, tenant)
            self._states[session_id] = state
            obs.counter("serving.sessions.opened", tenant=tenant)
            if obs.enabled():
                obs.gauge("serving.sessions.active", len(self._states))
        return state

    def get(self, session_id: SessionId) -> Optional[SessionState]:
        return self._states.get(session_id)

    def states(self) -> List[SessionState]:
        return list(self._states.values())

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class BackendSlot:
    """One route sessions pin to: its liveness and the frames run on it."""

    id: str
    alive: bool = True
    frames: int = 0


class SlotPool:
    """The fixed set of backend slots the affinity router routes over.

    A call runs on the caller's thread, and the server makes its calls
    one at a time on the serving loop, so a session pinned to a slot
    gets strict per-session ordering.  ``kill``
    (tests) or an armed ``serving.slot`` fault marks a slot dead;
    :meth:`retire` removes it from the router and reports the re-pins.
    """

    def __init__(self, backend: Any, slots: int) -> None:
        if slots < 1:
            raise ServingError("SlotPool needs at least one backend slot")
        #: the (request, degraded) -> bytes callable every slot runs
        self.backend = backend
        self.router = AffinityRouter()
        self._slots: Dict[str, BackendSlot] = {}
        for index in range(slots):
            slot_id = f"slot-{index}"
            self._slots[slot_id] = BackendSlot(id=slot_id)
            self.router.join(slot_id)

    # -- routing -------------------------------------------------------------

    def slot_for(self, session_id: SessionId, fallback_key: str = "") -> BackendSlot:
        """The live slot for *session_id* (or *fallback_key* when sessionless)."""
        route = session_id or fallback_key
        slot_id = self.router.slot_for(route)
        return self._slots[slot_id]

    def slot(self, slot_id: str) -> BackendSlot:
        try:
            return self._slots[slot_id]
        except KeyError:
            raise ServingError(f"unknown slot {slot_id!r}") from None

    @property
    def live_slots(self) -> List[str]:
        return [s.id for s in self._slots.values() if s.alive]

    # -- execution -----------------------------------------------------------

    def run(self, slot: BackendSlot, request: Request, degraded: bool) -> bytes:
        """One backend call routed to *slot* (the ``serving.slot`` site)."""
        if not slot.alive:
            raise SlotDeadError(f"slot {slot.id} is dead")
        try:
            faults.check(
                "serving.slot",
                slot=slot.id,
                session=request.session,
                tenant=request.tenant,
            )
        except InjectedFault as exc:
            slot.alive = False
            raise SlotDeadError(f"slot {slot.id} died: {exc}") from exc
        payload = self.backend(request, degraded)
        slot.frames += 1
        return payload

    # -- death and re-pinning ------------------------------------------------

    def kill(self, slot_id: str) -> None:
        """Mark a slot dead (test hook): a dead slot refuses new work."""
        self.slot(slot_id).alive = False

    def retire(
        self, slot_id: str, sessions: Sequence[SessionState] = ()
    ) -> Dict[str, str]:
        """Remove a dead slot from routing; re-pin its sessions.

        Returns ``{session_id: new_slot_id}`` for every session that was
        pinned to the retired slot — by the rendezvous property, no
        other session's routing changes.
        """
        slot = self._slots.get(slot_id)
        if slot is None:
            return {}
        slot.alive = False
        self.router.leave(slot_id)
        if not self.router.slots:
            raise ServingError(f"slot {slot_id!r} died and no slots survive")
        moved: Dict[str, str] = {}
        for state in sessions:
            if state.slot == slot_id:
                new_slot = self.router.slot_for(state.id)
                state.pin(new_slot)
                moved[state.id] = new_slot
        if moved:
            obs.counter("serving.sessions.repinned", len(moved), slot=slot_id)
        return moved

    def stats(self, sessions: Sequence[SessionState] = ()) -> Dict[str, Dict[str, Any]]:
        """Per slot: liveness, frames run, and how many of *sessions* it holds."""
        pinned = Counter(state.slot for state in sessions)
        return {
            slot.id: {
                "alive": slot.alive,
                "frames": slot.frames,
                "sessions": pinned[slot.id],
            }
            for slot in self._slots.values()
        }
