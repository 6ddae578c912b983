"""Session state: the one record of each session the server serves.

The paper's interaction loop is exploratory — a user orbits a camera or
animates timesteps — so consecutive requests from one session are
highly correlated.  :class:`SessionRegistry` / :class:`SessionState`
hold what the server remembers of a session, owned by the tenant that
opened it: its request history (the speculative predictor's input) and
its :class:`SessionFrame` ring — each served frame as the wire
advertises it (sequence number, status, provenance, payload digest)
plus its payload, which is what the wire endpoint sends and replays.
What a session keeps warm lives below the server, on its live cell:
the scene and last frame :class:`~repro.dv3d.cell.DV3DCell` keeps and
the volume's ``ImageData._derived`` caches.

Observability: the ``serving.sessions.opened`` counter and the
``serving.sessions.active`` gauge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro import obs
from repro.serving.request import Response
from repro.util.errors import ServingError

#: sessions are plain opaque strings (Request.session)
SessionId = str

#: request params remembered per session — the speculative predictor's
#: input, so at least :class:`~repro.serving.speculative.NextFramePredictor`'s
#: three-request stride window
HISTORY_WINDOW = 8


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
        #: the one outstanding speculation for this session, if any
        self.speculation: Optional["Speculation"] = None

    def observe(self, params: Mapping[str, Any]) -> None:
        self.history.append(dict(params))
        del self.history[:-HISTORY_WINDOW]

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

    def __len__(self) -> int:
        return len(self._states)
