"""One span tree per served frame, rooted at ``serving.request``.

``ServingServer.submit`` opens the root; cache lookup, admission and the
wait for the render (or for the in-flight render a coalesced request
joined) are its children, and the render's executor and kernel spans
land under it through the work item's context.  The wire
``RENDER`` path awaits ``submit``, so it gets the same tree.  A
speculative render is not part of the frame that triggered it: it is a
tree of its own, rooted at ``serving.speculate``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

from repro import obs
from repro.serving import AppBackend, Request, ServingConfig, ServingServer
from repro.serving.endpoint import WireSessionClient, WireSessionServer

from tests.serving.test_end_to_end import scene_params

KERNELS = {"rasterizer.rasterize", "raycast.render", "isosurface.marching_tetrahedra"}


def trees(spans) -> Dict[int, List]:
    """Every recorded span, grouped under the id of its root."""
    by_id = {s.span_id: s for s in spans}
    grouped: Dict[int, List] = {}
    for span in spans:
        root = span
        while root.parent_id is not None:
            root = by_id[root.parent_id]
        grouped.setdefault(root.span_id, []).append(span)
    return grouped


def roots(spans, name):
    return [s for s in spans if s.parent_id is None and s.name == name]


def assert_one_frame_tree(tree):
    names = {s.name for s in tree}
    assert "executor.execute" in names
    assert names & KERNELS
    assert {"serving.admission", "serving.render.wait"} <= names


def serve(*requests, config=None, opened=None):
    async def scenario():
        async with ServingServer(AppBackend(), config=config or ServingConfig(slots=2)) as server:
            async def one(request):
                if opened is None:
                    return await server.submit(request)
                with obs.span(opened):
                    return await server.submit(request)

            responses = await asyncio.gather(*(one(r) for r in requests))
            await server.drain_speculation()
            return responses

    with obs.recording() as recorder:
        responses = asyncio.run(scenario())
    assert all(r.status == "ok" for r in responses), [r.reason for r in responses]
    return recorder.spans


def test_an_in_process_frame_is_one_tree_rooted_at_its_request():
    spans = serve(Request(params=scene_params("ta"), tenant="t1"))
    grouped = trees(spans)
    [root] = roots(spans, "serving.request")
    assert list(grouped) == [root.span_id]
    assert root.attrs["tenant"] == "t1" and root.attrs["key"]
    assert_one_frame_tree(grouped[root.span_id])


def test_a_wire_frame_is_one_tree_rooted_at_its_request():
    with obs.recording() as recorder:
        with WireSessionServer(AppBackend(), ServingConfig(slots=2)) as server:
            with WireSessionClient(server.host, server.port) as client:
                client.open("wire-trace", tenant="t1")
                frame = client.render(scene_params("ta"))
    assert frame.meta["status"] == "ok"
    spans = recorder.spans
    grouped = trees(spans)
    [root] = roots(spans, "serving.request")
    assert list(grouped) == [root.span_id]
    assert root.attrs["session"] == "wire-trace"
    assert_one_frame_tree(grouped[root.span_id])


def test_two_interleaved_requests_build_two_disjoint_trees():
    spans = serve(Request(params=scene_params("ta")), Request(params=scene_params("hus")))
    grouped = trees(spans)
    requests = roots(spans, "serving.request")
    assert len(requests) == 2 and set(grouped) == {r.span_id for r in requests}
    first, second = sorted(requests, key=lambda s: s.start)
    assert second.start < first.start + first.duration  # both open at once
    for request in requests:
        tree = grouped[request.span_id]
        assert_one_frame_tree(tree)
        assert [s.name for s in tree].count("executor.execute") == 1


def test_a_coalesced_request_waits_in_its_own_tree():
    spans = serve(Request(params=scene_params("ta")), Request(params=scene_params("ta")))
    grouped = trees(spans)
    requests = roots(spans, "serving.request")
    assert len(requests) == 2 and set(grouped) == {r.span_id for r in requests}
    rendered, coalesced = sorted(
        (grouped[r.span_id] for r in requests),
        key=lambda tree: "serving.coalesced.wait" in {s.name for s in tree},
    )
    assert_one_frame_tree(rendered)
    assert sorted(s.name for s in coalesced) == ["serving.coalesced.wait", "serving.request"]


def test_speculation_is_a_tree_of_its_own():
    config = ServingConfig(slots=2, speculation_budget=1)

    async def scenario():
        async with ServingServer(AppBackend(), config=config) as server:
            for t in range(3):
                with obs.span("client.request"):
                    params = dict(scene_params("ta"), timestep=t)
                    response = await server.submit(
                        Request(params=params, session="anim", tenant="t1"))
                assert response.status == "ok"
                await server.drain_speculation()

    with obs.recording() as recorder:
        asyncio.run(scenario())
    spans = recorder.spans
    speculations = [s for s in spans if s.name == "serving.speculate"]
    assert speculations and all(s.parent_id is None for s in speculations)
    grouped = trees(spans)
    for speculation in speculations:
        tree = grouped[speculation.span_id]
        assert {s.name for s in tree} & KERNELS
        assert "serving.request" not in {s.name for s in tree}
    clients = roots(spans, "client.request")
    assert len(clients) == 3
    for client in clients:
        assert "serving.speculate" not in {s.name for s in grouped[client.span_id]}
