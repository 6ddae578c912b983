"""A request's span context crosses the hand-off to the worker task.

A render runs in the server's worker task, not in the task that awaited
``submit``.  The submitting task's context travels with the work item,
so a span that task holds open is an ancestor of every span the render
records for that request — and only for that request.
"""

from __future__ import annotations

import asyncio

from repro import obs
from repro.serving import AppBackend, Request, ServingConfig, ServingServer

from tests.serving.test_end_to_end import scene_params


def ancestors(spans, span):
    by_id = {s.span_id: s for s in spans}
    chain = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        chain.append(span.span_id)
    return chain


def serve(scenes):
    """Submit one request per scene, each under its own open span; the
    server starts before any span opens."""

    async def one(server, scene):
        with obs.span("client.request", scene=scene) as client:
            response = await server.submit(Request(params=scene_params(scene)))
        assert response.status == "ok", response.reason
        return scene, client.id

    async def scenario():
        async with ServingServer(AppBackend(), config=ServingConfig(slots=2)) as server:
            return dict(await asyncio.gather(*(one(server, s) for s in scenes)))

    with obs.recording() as recorder:
        clients = asyncio.run(scenario())
    executes = [s for s in recorder.spans if s.name == "executor.execute"]
    assert executes
    return clients, executes, recorder.spans


def test_a_span_around_submit_is_an_ancestor_of_the_renders_spans():
    clients, executes, spans = serve(["ta"])
    for execute in executes:
        assert clients["ta"] in ancestors(spans, execute)
    modules = [s for s in spans if s.name == "executor.module"]
    assert modules and all(clients["ta"] in ancestors(spans, m) for m in modules)


def test_two_interleaved_requests_build_disjoint_trees():
    clients, executes, spans = serve(["ta", "hus"])
    roots = set(clients.values())
    owners = [roots & set(ancestors(spans, execute)) for execute in executes]
    assert all(len(owner) == 1 for owner in owners)
    assert set().union(*owners) == roots
