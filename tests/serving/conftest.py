"""Serving-suite fixtures: fake clocks, counting backends, cache tiers.

Every test here is deterministic by construction:

* the **fake clock** drives deadlines and the circuit breaker — no
  test ever sleeps to make time pass;
* the **deferred-start pattern** makes coalescing assertions exact —
  ``submit()`` registers its in-flight entry synchronously (the first
  ``await`` is on the shared future), so a test can submit N requests,
  yield once, *then* start the workers and know all N coalesced;
* faults are injected at named :mod:`repro.resilience.faults` sites,
  never by killing things from another thread;
* a ``ServingServer`` renders on its event loop and starts no
  thread; ``tests/conftest.py`` fails any test, here or elsewhere,
  that leaves a ``repro-serving*`` thread (there should be none) or a
  wire endpoint thread (``repro-wire*``) running after its owner
  closed.

There is no pytest-asyncio in the toolchain; async scenarios run under
plain ``asyncio.run()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import List, Optional, Sequence

import pytest

from repro.cache.config import CacheConfig
from repro.cache.keys import digest
from repro.cache.store import ResultCache
from repro.serving import Request, Response, ServingConfig, ServingServer


class FakeClock:
    """A monotonic clock tests advance by hand (breaker + deadlines)."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class CountingBackend:
    """Backend double: records calls, returns deterministic bytes.

    The payload is a pure function of (params, degraded), so two
    executions of the same request are byte-identical — and *one*
    execution fanned out to N waiters trivially is.
    """

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.calls: List[tuple] = []
        self._lock = threading.Lock()

    def __call__(self, request: Request, degraded: bool) -> bytes:
        with self._lock:
            self.calls.append((dict(request.params), degraded))
        if self.delay_s:
            time.sleep(self.delay_s)
        return f"frame/{digest(dict(request.params))}/{degraded}".encode()

    def payload_for(self, request: Request, degraded: bool = False) -> bytes:
        return f"frame/{digest(dict(request.params))}/{degraded}".encode()

    @property
    def full_calls(self) -> int:
        with self._lock:
            return sum(1 for _, degraded in self.calls if not degraded)

    @property
    def degraded_calls(self) -> int:
        with self._lock:
            return sum(1 for _, degraded in self.calls if degraded)


def counted(recorder, name: str, **labels: str) -> float:
    """Sum of counter *name* over every series carrying *labels*."""
    wanted = {k: str(v) for k, v in labels.items()}
    return sum(
        value for key, value in recorder.counters.items()
        if key.name == name and wanted.items() <= key.label_dict().items()
    )


def executions(recorder) -> float:
    """Full renders that ran, by the outcome counter: ``ok`` from
    ``render``, less the requests that joined one (no speculation)."""
    return counted(recorder, "serving.outcome", status="ok", source="render") \
        - recorder.counter_total("serving.coalesced")


def memory_cache(entries: int = 256) -> ResultCache:
    """A fresh memory-only serving cache (no disk, no ambient state)."""
    return ResultCache(
        CacheConfig(enabled=True, memory_entries=entries, use_disk=False)
    )


async def submit_deferred(
    server: ServingServer,
    requests: Sequence[Request],
    close: bool = True,
) -> List[Response]:
    """Submit all *requests* before any worker runs, then serve them.

    The deferred start guarantees every identical-digest request is
    in-flight simultaneously: coalescing counts become exact equalities
    instead of races.
    """
    tasks = [asyncio.create_task(server.submit(r)) for r in requests]
    await asyncio.sleep(0)  # run every submit to its first await
    await server.start()
    responses = await asyncio.gather(*tasks)
    if close:
        await server.aclose()
    return list(responses)


@pytest.fixture()
def fake_clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def backend() -> CountingBackend:
    return CountingBackend()


@pytest.fixture()
def serving_cache() -> ResultCache:
    return memory_cache()


def make_server(
    backend,
    cache: Optional[ResultCache] = None,
    clock=time.monotonic,
    **overrides,
) -> ServingServer:
    config = ServingConfig(**overrides)
    return ServingServer(backend, config=config, cache=cache, clock=clock)
