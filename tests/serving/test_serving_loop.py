"""What the serving loop guarantees to the frames rendered on it.

The server's one worker task renders each queued item inline on the
loop, one at a time, and yields once after each, so a finished frame
reaches its submitter before the next item holds the loop.
"""

from __future__ import annotations

import asyncio

from repro.serving import Request, ServingConfig, ServingServer

from tests.serving.conftest import CountingBackend


def test_each_submitter_gets_its_frame_before_the_next_key_renders():
    submissions = []
    done_at_call = []

    class Recording(CountingBackend):
        def __call__(self, request, degraded):
            done_at_call.append(sum(task.done() for task in submissions))
            return super().__call__(request, degraded)

    async def scenario():
        server = ServingServer(Recording(), config=ServingConfig(slots=2))
        submissions.extend(
            asyncio.create_task(server.submit(Request(params={"scene": n})))
            for n in range(3)
        )
        await asyncio.sleep(0)  # all three keys queue before the worker starts
        async with server:
            return await asyncio.gather(*submissions)

    responses = asyncio.run(scenario())
    assert [r.status for r in responses] == ["ok", "ok", "ok"]
    assert done_at_call == [0, 1, 2]
