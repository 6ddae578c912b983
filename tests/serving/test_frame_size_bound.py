"""A frame too large for one ``FRAME`` is refused before anything is drawn.

A frame's PPM travels as one ``FRAME`` payload, at most
:data:`~repro.util.framing.MAX_PAYLOAD_BYTES`.  ``AppBackend`` refuses
a view whose PPM would exceed it with
:class:`~repro.util.errors.RequestError`: nothing is allocated or
drawn, and, like any malformed request, it feeds no circuit breaker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.rendering.scene import Renderer
from repro.serving import Request, ServingServer
from repro.serving.backend import AppBackend
from repro.serving.server import BREAKER_FAILURES
from repro.util.errors import RequestError
from repro.util.framing import MAX_PAYLOAD_BYTES

SCENE = {"template": "Slicer", "variables": {"variable": "ta"},
         "size": {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3}}
HUGE = dict(SCENE, width=100_000, height=100_000)


def _ppm_length(width: int, height: int) -> int:
    return len(b"P6\n%d %d\n255\n" % (width, height)) + 3 * width * height


@pytest.fixture()
def no_drawing(monkeypatch):
    """Make any draw fail the request it serves, and record it."""
    drawn = []

    def refuse(self, *args, **kwargs):
        drawn.append((self.width, self.height))
        raise AssertionError("drew a frame")

    monkeypatch.setattr(Renderer, "render", refuse)
    return drawn


def test_an_oversized_frame_is_refused_without_drawing(no_drawing):
    async def scenario():
        async with ServingServer(AppBackend()) as server:
            responses = [await server.submit(Request(params=HUGE, tenant="mallory"))
                         for _ in range(BREAKER_FAILURES)]
            return responses, server.breaker.state

    responses, breaker = asyncio.run(scenario())
    assert [r.status for r in responses] == ["error"] * BREAKER_FAILURES
    assert all("RequestError" in r.reason for r in responses)
    assert no_drawing == []
    assert breaker == "closed"


def test_the_largest_frame_under_the_bound_still_parses(no_drawing):
    height = 4096
    width = (MAX_PAYLOAD_BYTES - 32) // (3 * height)
    while _ppm_length(width + 1, height) <= MAX_PAYLOAD_BYTES:
        width += 1
    view = AppBackend._parse(dict(SCENE, width=width, height=height))
    assert (view.width, view.height) == (width, height)
    with pytest.raises(RequestError, match="FRAME payload"):
        AppBackend._parse(dict(SCENE, width=width + 1, height=height))
    assert no_drawing == []
