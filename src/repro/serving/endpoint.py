"""The session wire endpoint: a socket front door over the ServingServer.

:class:`WireSessionServer` exposes one :class:`~repro.serving.server.ServingServer`
to remote clients over the versioned framed protocol of
:mod:`repro.serving.wire`.  Each connection speaks a short dialogue::

    client                          server
    ------                          ------
    HELLO                     ->
                              <-    WELCOME {wire_version}
    OPEN {session, tenant,    ->
          resume_from}
                              <-    OPENED {session, replay, next_seq, first_seq}
                              <-    FRAME * replay      (missed frames)
    RENDER {params}           ->
                              <-    FRAME {seq, status, source, digest}
    ...
    CLOSE                     ->
                              <-    BYE

Reconnect-with-resume: the endpoint keeps no session state.  A ``FRAME``
is the :class:`~repro.serving.sessions.SessionFrame` that ``submit``
logged in the session's ring before returning, so before it goes on the
wire.  A client whose connection dies mid-stream — the armed
``serving.wire.send`` fault, the stand-in for a network partition —
reconnects and OPENs the session with ``resume_from`` set to the first
sequence number it never received; the server replays the missed frames
from that ring byte-identically.  The ring keeps the last
``ServingConfig.session_log_frames``: ``first_seq`` is the oldest seq
replayed (``next_seq`` when none is), older frames asked for are counted
in ``serving.wire.resume.lost``, and ``reconnect()`` raises on them.

Protocol violations never hang a peer: a malformed, truncated, corrupt
or wrong-version frame raises a typed
:class:`~repro.util.errors.WireError` on the reading side, and the
server answers what it can with a ``KIND_ERROR`` frame before closing.

The endpoint owns one thread, ``repro-wire-loop``, running the serving
loop; each connection is a task on it that awaits the server directly,
so the ring needs no lock.  ``io_timeout`` bounds every read of a peer
and every drain of a backed-up write: a silent peer holds up no other.
``stop()`` raises the first exception a connection task let escape.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Set

from repro import obs
from repro.cache.store import ResultCache
from repro.serving import wire
from repro.serving.config import ServingConfig
from repro.serving.request import Request
from repro.serving.server import Backend, ServingServer
from repro.util import framing
from repro.util.errors import (
    ServingError,
    WireCorruptionError,
    WireError,
    WireFormatError,
    WireTruncatedError,
    WireVersionError,
)
from repro.util.framing import WIRE_VERSION, WireFrame


def _time_out(reader: asyncio.StreamReader) -> None:
    reader.set_exception(asyncio.TimeoutError("peer silent past io_timeout"))


class WireSessionServer:
    """Serve session render streams over a listening socket.

    Parameters mirror :class:`~repro.serving.server.ServingServer`; the
    endpoint owns the serving server and its event loop thread.
    """

    def __init__(
        self,
        backend: Backend,
        config: Optional[ServingConfig] = None,
        cache: Optional[ResultCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        io_timeout: float = 30.0,
    ) -> None:
        self.server = ServingServer(backend, config=config, cache=cache)
        self.io_timeout = float(io_timeout)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._acceptor: Optional[asyncio.AbstractServer] = None
        #: the live connections' tasks, touched on the loop only
        self._conns: Set["asyncio.Task[None]"] = set()
        self._closing = False
        self._escaped: Optional[BaseException] = None  # the first to reach the loop's handler

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WireSessionServer":
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(self._escape)
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-wire-loop", daemon=True
        )
        self._loop_thread.start()
        self._submit_coro(self.server.start())
        self._acceptor = self._submit_coro(
            asyncio.start_server(self._serve_connection, sock=self._listener)
        )
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._submit_coro(self._close())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None
        self._listener.close()  # a no-op once the acceptor closed it
        escaped, self._escaped = self._escaped, None
        if escaped is not None:
            raise escaped

    def _escape(self, loop: asyncio.AbstractEventLoop, context: Dict[str, Any]) -> None:
        # asyncio would only log what a connection task let escape: keep it for stop()
        loop.default_exception_handler(context)
        self._escaped = self._escaped or context.get("exception") or ServingError(context["message"])

    def __enter__(self) -> "WireSessionServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _submit_coro(self, coro: Any) -> Any:
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=max(self.io_timeout, 60.0)
        )

    async def _close(self) -> None:
        self._closing = True
        asyncio.get_running_loop().remove_reader(self._listener)  # accept no more
        for task in self._conns:
            task.cancel()
        await asyncio.gather(*self._conns, return_exceptions=True)
        await self.server.aclose()
        # a peer accepted just before is still landing and is hung up on; only
        # then may the acceptor close (asyncio asserts on a later landing)
        while others := asyncio.all_tasks() - {asyncio.current_task()}:
            await asyncio.wait(others)
        if self._acceptor is not None:
            self._acceptor.close()
            await self._acceptor.wait_closed()

    # -- one connection ------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._closing:  # accepted just before stop()
            writer.close()
            return
        task = asyncio.current_task()
        self._conns.add(task)
        obs.counter("serving.wire.connections")
        try:
            await self._dialogue(reader, writer)
        except asyncio.CancelledError:
            # stop(): drop what the peer never took, and end normally (the
            # stream protocol's done callback errors on a cancelled task)
            writer.transport.abort()
        except (WireError, ServingError) as exc:
            obs.counter("serving.wire.protocol_errors", error=type(exc).__name__)
            error = {"error": type(exc).__name__, "detail": str(exc)}
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                await self._send(writer, WireFrame(wire.KIND_ERROR, error))
        except (OSError, asyncio.TimeoutError):
            pass  # peer vanished or went silent; the ring survives for resume
        finally:
            writer.close()
            self._conns.discard(task)

    async def _read(self, reader: asyncio.StreamReader) -> Optional[WireFrame]:
        # one timer on the loop, not wait_for's task per read: a peer silent
        # for io_timeout fails the read with TimeoutError, which drops it
        timer = asyncio.get_running_loop().call_later(self.io_timeout, _time_out, reader)
        try:
            return await framing.read_frame_async(reader, wire.SEND_SITE)
        finally:
            timer.cancel()

    async def _send(self, writer: asyncio.StreamWriter, frame: WireFrame) -> None:
        # a transport closed with bytes still buffered takes more writes: nothing
        # may follow a dropped frame, as nothing follows a closed socket's
        if writer.is_closing():
            raise ConnectionResetError("connection dropped mid-stream")
        # write_frame's socket: its fault site may close it instead of sending
        wire.write_frame(SimpleNamespace(sendall=writer.write, close=writer.close), frame)
        if writer.transport.get_write_buffer_size():
            await asyncio.wait_for(writer.drain(), self.io_timeout)

    async def _dialogue(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        hello = await self._read(reader)
        if hello is None:
            return
        if hello.kind != wire.KIND_HELLO:
            raise WireError(f"expected hello, got {hello.kind!r}")
        await self._send(writer, WireFrame(wire.KIND_WELCOME, {"wire_version": WIRE_VERSION}))
        session = ""
        tenant = "default"
        while True:
            frame = await self._read(reader)
            if frame is None:
                return  # orderly EOF between frames
            if frame.kind == wire.KIND_OPEN:
                session = frame.meta.get("session", "")
                tenant = frame.meta.get("tenant", "default")
                resume_from = frame.meta.get("resume_from", 0)
                if not (isinstance(session, str) and isinstance(tenant, str)
                        and type(resume_from) is int and resume_from >= 0):
                    raise WireFormatError(f"malformed open frame: {frame.meta!r}")
                if not session:
                    raise WireError("open frame carries no session id")
                replay, next_seq = await self.server.replay(session, tenant, resume_from)
                first_seq = replay[0].seq if replay else next_seq
                if first_seq > resume_from:  # the ring no longer reaches back
                    obs.counter("serving.wire.resume.lost", first_seq - resume_from)
                opened = {"session": session, "replay": len(replay),
                          "next_seq": next_seq, "first_seq": first_seq}
                await self._send(writer, WireFrame(wire.KIND_OPENED, opened))
                for logged in replay:
                    meta = dict(logged.meta(), replayed=True)
                    await self._send(writer, WireFrame(wire.KIND_FRAME, meta, logged.payload))
            elif frame.kind == wire.KIND_RENDER:
                if not session:
                    raise WireError("render before open")
                params = frame.meta.get("params", {})
                if not isinstance(params, dict):
                    raise WireFormatError(f"render frame params are not an object: {params!r}")
                await self.server.submit(Request(params=params, tenant=tenant, session=session))
                # no suspension since submit logged it: the newest entry is this one
                logged = self.server.sessions.get(session).frames[-1]
                await self._send(writer, WireFrame(wire.KIND_FRAME, logged.meta(), logged.payload))
            elif frame.kind == wire.KIND_CLOSE:
                await self._send(writer, WireFrame(wire.KIND_BYE))
                return
            else:
                raise WireError(f"unexpected frame kind {frame.kind!r}")


class WireSessionClient:
    """A blocking client of one :class:`WireSessionServer` session.

    Tracks the next sequence number it expects, so
    :meth:`reconnect` can resume exactly where the stream broke and
    receive every missed frame from the session's ring.  ``first_seq``
    is where the last ``OPENED`` said its replay starts.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.session = ""
        self.tenant = "default"
        self.next_seq = 0
        self.first_seq = 0
        self._sock: Optional[socket.socket] = None

    # -- connection ----------------------------------------------------------

    def connect(self) -> "WireSessionClient":
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
        welcome = self._expect(wire.KIND_WELCOME)
        version = int(welcome.meta.get("wire_version", -1))
        if version != WIRE_VERSION:
            raise WireVersionError(
                f"server speaks wire version {version}, client {WIRE_VERSION}"
            )
        return self

    def open(
        self, session: str, tenant: str = "default", resume_from: Optional[int] = None
    ) -> List[WireFrame]:
        """Open (or resume) *session*; returns the replayed frames — from
        ``first_seq`` on when the ring no longer reaches *resume_from*."""
        resume = self.next_seq if resume_from is None else int(resume_from)
        return self._open(session, tenant, resume, strict=False)

    def reconnect(self) -> List[WireFrame]:
        """Dial a fresh connection and resume mid-stream: every missed
        frame, or a :class:`WireError` (and ``next_seq`` left alone)."""
        self.close_socket()
        self.connect()
        return self._open(self.session, self.tenant, self.next_seq, strict=True)

    def _open(
        self, session: str, tenant: str, resume: int, strict: bool
    ) -> List[WireFrame]:
        self.session = session
        self.tenant = tenant
        wire.write_frame(
            self._require_sock(),
            WireFrame(
                wire.KIND_OPEN,
                {"session": session, "tenant": tenant, "resume_from": resume},
            ),
        )
        opened = self._expect(wire.KIND_OPENED)
        self.first_seq = int(opened.meta.get("first_seq", resume))
        if strict and self.first_seq > resume:
            self.close_socket()
            raise WireError(
                f"cannot resume session {session!r} from seq {resume}: the "
                f"oldest frame the server still holds is seq {self.first_seq}"
            )
        replayed = []
        for _ in range(int(opened.meta.get("replay", 0))):
            frame = self._expect(wire.KIND_FRAME)
            self._account(frame)
            replayed.append(frame)
        return replayed

    def close(self) -> None:
        sock = self._sock
        if sock is not None:
            try:
                wire.write_frame(sock, WireFrame(wire.KIND_CLOSE))
                self._expect(wire.KIND_BYE)
            except (OSError, WireError):
                pass
        self.close_socket()

    def close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "WireSessionClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- rendering -----------------------------------------------------------

    def render(self, params: Dict[str, Any]) -> WireFrame:
        """Render one frame; raises a typed WireError on a broken stream."""
        wire.write_frame(
            self._require_sock(),
            WireFrame(wire.KIND_RENDER, {"params": params}),
        )
        frame = self._expect(wire.KIND_FRAME)
        self._account(frame)
        return frame

    # -- internals -----------------------------------------------------------

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise ServingError("client is not connected")
        return self._sock

    def _expect(self, kind: str) -> WireFrame:
        try:
            frame = wire.read_frame(self._require_sock())
        except OSError as exc:
            raise WireTruncatedError(f"connection lost mid-stream: {exc}") from exc
        if frame is None:
            raise WireTruncatedError(
                f"connection closed while awaiting a {kind!r} frame"
            )
        if frame.kind == wire.KIND_ERROR:
            raise WireError(
                f"server error: {frame.meta.get('error')}: {frame.meta.get('detail')}"
            )
        if frame.kind != kind:
            raise WireError(f"expected {kind!r} frame, got {frame.kind!r}")
        if frame.kind == wire.KIND_FRAME:
            advertised = frame.meta.get("digest")
            if not advertised:  # unchecked pixels are never handed on
                raise WireFormatError("frame advertises no payload digest")
            if advertised != frame.payload_digest():
                raise WireCorruptionError(
                    "frame payload does not match its advertised digest"
                )
        return frame

    def _account(self, frame: WireFrame) -> None:
        seq = frame.meta.get("seq")
        if seq is not None:
            self.next_seq = max(self.next_seq, int(seq) + 1)
