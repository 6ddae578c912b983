"""A session is one record: the wire replays from the server's frame ring.

``SessionState.frames`` is the only log of what a session was served —
under every config — and a ``FRAME`` on the wire is an entry of it.  A
resume that asks for frames the ring has already trimmed is told so:
``OPENED.first_seq`` names the oldest frame replayed, ``reconnect()``
(which promises continuity) raises, a plain ``open()`` stays lenient.
The record belongs to the tenant that opened the session: another
tenant naming it reads nothing from the ring and adds nothing to it.
Every frame a session was served is in the ring, a failed render's
included: sequence numbers are gapless and each digest is the sha256
of the payload the caller got.
"""

from __future__ import annotations

import asyncio
import hashlib
import socket
import threading

import pytest

from repro import obs
from repro.resilience import faults
from repro.serving import Request, ServingConfig, ServingServer, wire
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.util.errors import ServingError, WireError
from repro.util.framing import WireFrame

from tests.serving.conftest import CountingBackend, memory_cache

RING_OF_FOUR = ServingConfig(session_log_frames=4)
CONFIGS = {
    "default": {},
    "slots+speculation": {"slots": 2, "speculation_budget": 1},
    # ``slots`` selects nothing: every value renders through the one backend
    "slots=1": {"slots": 1},
    "slots=4": {"slots": 4},
}


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def advertised(meta):
    return (meta["seq"], meta["status"], meta["source"], meta["digest"])


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS.keys())
def test_wire_frames_are_the_servers_session_log(overrides):
    config = ServingConfig(**overrides)
    backend = CountingBackend()
    with WireSessionServer(backend, config, cache=memory_cache()) as server:
        with WireSessionClient(server.host, server.port) as client:
            client.open("one-log", tenant="t1")
            params = [{"scene": "s", "timestep": t % 4} for t in range(7)]
            received = [client.render(p) for p in params]
        state = server.server.sessions.get("one-log")
        assert [advertised(f.meta) for f in received] == [
            (f.seq, f.status, f.source, f.digest) for f in state.frames
        ]
        assert [f.payload for f in received] == [f.payload for f in state.frames]
        assert {f.meta["source"] for f in received} >= {"render", "cache"}
        assert [f.payload for f in received] == [
            backend.payload_for(Request(params=p)) for p in params]
        if not config.speculation_budget:  # whatever ``slots`` is
            assert [f.meta["source"] for f in received] == ["render"] * 4 + ["cache"] * 3
        assert set(received[0].meta) == {
            "status", "source", "reason", "key", "digest", "seq"}
        assert state.tenant == "t1"
        assert server.server.stats()["sessions"] == 1


def test_the_ring_is_bounded_in_the_one_place():
    with WireSessionServer(CountingBackend(), RING_OF_FOUR) as server:
        with WireSessionClient(server.host, server.port) as client:
            client.open("ring")
            for t in range(10):
                client.render({"scene": "r", "timestep": t})
        state = server.server.sessions.get("ring")
        assert [f.seq for f in state.frames] == [6, 7, 8, 9]
        assert state.next_seq == 10


def make_session_server(backend, **overrides):
    return ServingServer(backend, config=ServingConfig(**overrides), cache=memory_cache())


def test_every_frame_is_accounted_in_the_session_log():
    """The FrameRecord-style log covers the whole session, a failed
    render included."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend) as server:
            responses = []
            for t in range(6):
                if t == 3:  # the render of frame 3 fails
                    faults.arm("serving.execute", "raise", match={"tenant": "t-log"},
                               times=1)
                responses.append(await server.submit(Request(
                    params={"scene": "log", "timestep": t},
                    session="sess-log", tenant="t-log")))
            return responses, server.sessions.get("sess-log")

    responses, state = asyncio.run(scenario())
    assert [r.status for r in responses] == ["ok"] * 3 + ["error"] + ["ok"] * 2
    assert [frame.seq for frame in state.frames] == list(range(6))
    assert [frame.status for frame in state.frames] == [r.status for r in responses]
    for frame, response in zip(state.frames, responses):
        payload = response.payload or b""
        assert frame.payload == payload
        assert frame.digest == hashlib.sha256(payload).hexdigest()
    error = state.frames[3]
    assert (error.source, error.payload) == ("", b"")
    assert "InjectedFault" in error.reason
    assert {frame.source for frame in state.frames if frame.status == "ok"} <= {
        "render", "cache", "speculative"}


def test_cache_hits_and_renders_both_logged():
    """Cache-served frames are session frames too (provenance recorded)."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend) as server:
            request = Request(params={"scene": "c", "timestep": 0},
                              session="sess-c")
            first = await server.submit(request)
            second = await server.submit(request)
            assert first.status == second.status == "ok"
            assert first.payload == second.payload
            state = server.sessions.get("sess-c")
            assert [f.source for f in state.frames] == ["render", "cache"]
            assert state.frames[0].digest == state.frames[1].digest
    asyncio.run(scenario())


def test_session_log_ring_is_bounded():
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, session_log_frames=4) as server:
            for t in range(10):
                await server.submit(Request(
                    params={"scene": "ring", "timestep": t},
                    session="sess-ring"))
            state = server.sessions.get("sess-ring")
            assert len(state.frames) == 4
            assert [f.seq for f in state.frames] == [6, 7, 8, 9]
    asyncio.run(scenario())


class TestASessionBelongsToItsTenant:
    """alice opens ``a-1``; bob naming it is refused, and her ring holds
    her one frame."""

    def test_in_process(self):
        async def scenario():
            async with ServingServer(CountingBackend(), cache=memory_cache()) as server:
                served = await server.submit(
                    Request(params={"scene": "a"}, tenant="alice", session="a-1")
                )
                with pytest.raises(ServingError, match="another tenant"):
                    await server.replay("a-1", "bob", 0)
                with pytest.raises(ServingError, match="another tenant"):
                    await server.submit(
                        Request(params={"scene": "b"}, tenant="bob", session="a-1")
                    )
                frames, next_seq = await server.replay("a-1", "alice", 0)
            return served, frames, next_seq

        served, frames, next_seq = asyncio.run(scenario())
        assert [f.payload for f in frames] == [served.payload]
        assert next_seq == 1

    def test_over_the_wire(self):
        with WireSessionServer(CountingBackend(), cache=memory_cache()) as server:
            with WireSessionClient(server.host, server.port) as alice:
                alice.open("a-1", tenant="alice")
                alice.render({"scene": "a"})
            bob = WireSessionClient(server.host, server.port).connect()
            try:
                # an ERROR frame, not OPENED and a replay of alice's FRAME
                with pytest.raises(WireError, match="ServingError"):
                    bob.open("a-1", tenant="bob")
            finally:
                bob.close_socket()
            assert [f.seq for f in server.server.sessions.get("a-1").frames] == [0]


class TestResumePastTheRing:
    """Ten frames served, a ring of four, a resume from seq 2."""

    @staticmethod
    def served(server, session="s"):
        client = WireSessionClient(server.host, server.port).connect()
        client.open(session)
        for t in range(10):
            client.render({"scene": "g", "timestep": t})
        return client

    def test_open_is_lenient_and_reports_first_seq(self):
        with WireSessionServer(CountingBackend(), RING_OF_FOUR) as server:
            self.served(server).close()
            recorder = obs.enable(obs.Recorder())
            try:
                with WireSessionClient(server.host, server.port) as fresh:
                    replayed = fresh.open("s", resume_from=2)
                    assert [f.meta["seq"] for f in replayed] == [6, 7, 8, 9]
                    assert fresh.first_seq == 6
                    assert fresh.next_seq == 10
                    # frames 2..5 are gone, and now somebody says so
                    assert recorder.counter_total("serving.wire.resume.lost") == 4
                    # nothing missed: first_seq is next_seq, nothing is lost
                    assert fresh.open("s") == []
                    assert fresh.first_seq == 10
                    assert recorder.counter_total("serving.wire.resume.lost") == 4
            finally:
                obs.disable()

    def test_reconnect_raises_naming_both_numbers(self):
        with WireSessionServer(CountingBackend(), RING_OF_FOUR) as server:
            client = self.served(server)
            client.next_seq = 2  # as if frames 2..9 never arrived
            for _ in range(2):  # continuity stays broken: it raises every time
                with pytest.raises(WireError, match=r"seq 2\b.*seq 6\b"):
                    client.reconnect()
                assert client.next_seq == 2
            # taking the loss is an explicit, lenient open
            client.connect()
            assert len(client.open("s", resume_from=client.first_seq)) == 4
            assert client.render({"scene": "g", "timestep": 10}).meta["seq"] == 10
            client.close()

    def test_reconnect_within_the_ring_is_unchanged(self):
        with WireSessionServer(CountingBackend(), RING_OF_FOUR) as server:
            client = self.served(server)
            client.next_seq = 7
            assert [f.meta["seq"] for f in client.reconnect()] == [7, 8, 9]
            assert client.first_seq == 7
            client.close()


def test_open_racing_renders_replays_gapless_and_in_order():
    """A second connection OPENs the session while the first streams
    RENDERs into it: the replay and ``next_seq`` are one snapshot."""
    config = ServingConfig(session_log_frames=8)
    with WireSessionServer(CountingBackend(), config) as server:
        writer = WireSessionClient(server.host, server.port).connect()
        writer.open("raced")
        stop = threading.Event()
        failures = []

        def stream():
            t = 0
            try:
                while not stop.is_set():
                    writer.render({"scene": "race", "timestep": t})
                    t += 1
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                failures.append(exc)

        thread = threading.Thread(target=stream)
        thread.start()
        try:
            for _ in range(50):
                # the raw dialogue: the client class does not keep OPENED
                sock = socket.create_connection((server.host, server.port), 10.0)
                try:
                    wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
                    assert wire.read_frame(sock).kind == wire.KIND_WELCOME
                    wire.write_frame(sock, WireFrame(
                        wire.KIND_OPEN, {"session": "raced", "resume_from": 0}))
                    opened = wire.read_frame(sock).meta
                    seqs = [wire.read_frame(sock).meta["seq"]
                            for _ in range(opened["replay"])]
                finally:
                    sock.close()
                assert seqs == list(range(opened["first_seq"], opened["next_seq"]))
                assert len(seqs) <= 8
        finally:
            stop.set()
            thread.join(timeout=10.0)
            writer.close()
        assert not thread.is_alive()
        assert failures == []
        assert writer.next_seq > 0
