#!/usr/bin/env python
"""Print what one repeated frame costs at each layer of the serving path,
and what a fresh scene's open costs.

A repeat is a request identical to the one before it: the cell keeps
its frame, so nothing is drawn and whatever a layer spends on it is
that layer's fixed cost.  The scene is explore_surface's Slicer stratum
(64x48, with ``timestep`` and ``azimuth``).  The first four rows are
each the median of ``--repeats`` repeats after the scene's first frame,
timed around:

1. the ``AppBackend`` call on the calling thread;
2. ``await ServingServer.submit(request)`` on a server over that backend;
3. ``WireSessionClient.render``, the client in the same process as the
   ``WireSessionServer``;
4. the same wire over a backend that returns fixed bytes (the front
   door alone).

The last row is the median of ``--repeats`` opens, each the first
request for a scene new to one ``AppBackend`` (the scene differs only
in its cell's label), with the ``Renderer.render`` calls per open: an
open builds the scene's workflow, which draws nothing, and draws the
frame once.

A second table counts, per repeat of row 3 (averaged over
``--repeats`` after the first frame), the serving loop's iterations,
the ``hashlib.sha256`` objects made in the process (client and server
both) and the Tasks started on the serving loop.

A third table prices a time step, the request after the one before it
with the next ``timestep``, on explore_surface's grid at 64x48, for its
Slicer and its Isosurface stratum: the median ``AppBackend`` call of
``--repeats`` steps, then, over as many more steps under a
``repro.obs`` recorder, the mean ms per step inside the
``translation.translate`` spans (every variable the step translates),
the ``plot.build_scene`` span (its geometry, the isosurface included),
the ``isosurface.marching_tetrahedra`` and ``rasterizer.rasterize``
spans, and the ``rasterizer.rasterize`` calls per step (one per run of
like actors a frame draws), the ``Camera.project`` calls per step
(geometry the step made anew; kept geometry keeps its projection) and
the ``render_text`` calls per step (text the cell did not draw in the
frame before), the triangle box pixel centres tested per step (the
``rasterizer.fragments.tested`` counter) and the triangle-fragment
passes per step (``rasterizer._triangle_fragments`` calls: a mesh
whose projection is kept keeps its fragments).  The same steps, on stream_animate's Volume grid at
64x48, give the Volume stratum's row of a table of its own: the median
call, the ``Camera.pixel_rays`` calls per step (the view's rays, kept
on the plot while the camera, the size and the bounds stay) and the
``raycast.rays`` misses per step.  A last table gives, per Slicer and
Isosurface stratum, the misses per step of every kept site
(``repro.util.kept.Kept``) that counted during those steps, read from
its ``<site>.misses`` counter.

Run from the repository root::

    PYTHONPATH=src python tools/repeat_cost.py [--repeats 400]

Stdlib and ``repro`` only; the output is a markdown table.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.dv3d import cell as cell_module
from repro.rendering import rasterizer
from repro.rendering.camera import Camera
from repro.rendering.scene import Renderer
from repro.serving.backend import AppBackend
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.serving.request import Request
from repro.serving.server import ServingServer

PARAMS = {
    "template": "Slicer",
    "variables": {"variable": "ta"},
    "size": {"nlat": 10, "nlon": 16, "nlev": 5, "ntime": 12},
    "width": 64,
    "height": 48,
    "cell_params": {"width": 64, "height": 48, "dataset_label": "slicer",
                    "show_basemap": True},
    "timestep": 3,
    "azimuth": 45.0,
}
SESSION = "repeat-cost"
#: explore_surface's strata on its grid, each stepped through time
STEP_STRATA = (
    ("Slicer", {"variable": "ta"}),
    ("Isosurface", {"variable": "ta", "color_variable": "zg"}),
)
STEP_GRID = {"nlat": 10, "nlon": 16, "nlev": 5, "ntime": 12}
#: stream_animate's Volume grid (72x48x12), stepped the same way
VOLUME_GRID = {"nlat": 48, "nlon": 72, "nlev": 12, "ntime": 12}
STEP_SPANS = ("translation.translate", "plot.build_scene",
              "isosurface.marching_tetrahedra", "rasterizer.rasterize")


def _median_ms(call: Callable[[], object], repeats: int) -> float:
    call()  # the scene's first frame
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def backend_call(repeats: int) -> float:
    backend = AppBackend()
    request = Request(params=PARAMS, session=SESSION)
    return _median_ms(lambda: backend(request, False), repeats)


def server_submit(repeats: int) -> float:
    async def run() -> float:
        request = Request(params=PARAMS, session=SESSION)
        async with ServingServer(AppBackend()) as server:
            await server.submit(request)
            times: List[float] = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                await server.submit(request)
                times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    return asyncio.run(run())


def wire_render(repeats: int, backend) -> float:
    with WireSessionServer(backend) as server:
        with WireSessionClient(server.host, server.port) as client:
            client.open(SESSION)
            return _median_ms(lambda: client.render(PARAMS), repeats)


def wire_counts(repeats: int) -> Tuple[float, float, float]:
    """Serving-loop iterations, sha256 objects and Tasks per wire repeat."""
    iterations, hashes, tasks = itertools.count(), itertools.count(), itertools.count()
    sha256 = hashlib.sha256

    def counted_sha256(*args, **kwargs):
        next(hashes)
        return sha256(*args, **kwargs)

    with WireSessionServer(AppBackend()) as server:
        loop = server._loop  # the endpoint's own loop, in its own thread
        run_once = loop._run_once  # one BaseEventLoop iteration

        def counted_run_once():
            next(iterations)
            run_once()

        def counted_task(loop, coro, **kwargs):
            next(tasks)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def count(on: bool) -> None:
            loop._run_once = counted_run_once if on else run_once
            loop.set_task_factory(counted_task if on else None)

        with WireSessionClient(server.host, server.port) as client:
            client.open(SESSION)
            client.render(PARAMS)  # the scene's first frame
            loop.call_soon_threadsafe(count, True)
            client.render(PARAMS)  # the counters are on once this returns
            hashlib.sha256 = counted_sha256
            try:
                start = [next(c) for c in (iterations, hashes, tasks)]
                for _ in range(repeats):
                    client.render(PARAMS)
                end = [next(c) for c in (iterations, hashes, tasks)]
            finally:
                hashlib.sha256 = sha256
            loop.call_soon_threadsafe(count, False)
    # each next() above took one from its counter
    return tuple((b - a - 1) / repeats for a, b in zip(start, end))


def fresh_open(repeats: int) -> Tuple[float, float]:
    """Median ms of a fresh scene's open and ``Renderer.render`` calls per open."""
    backend = AppBackend()
    draw = Renderer.render
    draws = 0

    def counted(self, *args, **kwargs):
        nonlocal draws
        draws += 1
        return draw(self, *args, **kwargs)

    times: List[float] = []
    Renderer.render = counted
    try:
        for index in range(repeats):
            cell_params = dict(PARAMS["cell_params"], dataset_label=f"open-{index}")
            request = Request(params=dict(PARAMS, cell_params=cell_params))
            t0 = time.perf_counter()
            backend(request, False)
            times.append(time.perf_counter() - t0)
    finally:
        Renderer.render = draw
    return statistics.median(times) * 1e3, draws / repeats


class _Counted:
    """Counts the calls of ``owner.name`` while entered."""

    def __init__(self, owner: object, name: str) -> None:
        self.owner, self.name, self.calls = owner, name, 0

    def __enter__(self) -> "_Counted":
        original = getattr(self.owner, self.name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        self.original = original
        setattr(self.owner, self.name, counted)
        return self

    def __exit__(self, *exc_info: object) -> None:
        setattr(self.owner, self.name, self.original)


def step_cost(template: str, variables: dict, steps: int,
              grid: Dict[str, int] = STEP_GRID) -> Tuple[Tuple[float, ...], Dict[str, float]]:
    """Median ms of a time step through ``AppBackend``, the mean ms per
    step inside each of :data:`STEP_SPANS`, then the ``rasterize``,
    ``Camera.project``, ``render_text`` and ``Camera.pixel_rays`` calls,
    the triangle box pixel centres tested and the triangle-fragment
    passes per step; and the misses per step of each kept site that
    counted."""
    backend = AppBackend()
    params = dict(PARAMS, template=template, variables=variables, size=grid,
                  cell_params=dict(PARAMS["cell_params"], dataset_label=template))
    timestep = itertools.count()

    def step() -> None:
        backend(Request(params=dict(params, timestep=next(timestep) % grid["ntime"])), False)

    median = _median_ms(step, steps)
    with obs.recording() as recorder, _Counted(Camera, "project") as projections, \
            _Counted(cell_module, "render_text") as texts, \
            _Counted(Camera, "pixel_rays") as rays, \
            _Counted(rasterizer, "_triangle_fragments") as passes:
        for _ in range(steps):
            step()
    misses: Dict[str, float] = {}  # per step, every site that counted
    for key, value in recorder.counters.items():
        site, _, kind = key.name.rpartition(".")
        if kind in ("hits", "misses"):
            misses[site] = misses.get(site, 0.0) + (kind == "misses") * value / steps
    return (median,) + tuple(
        sum(s.duration for s in recorder.spans if s.name == name) / steps * 1e3
        for name in STEP_SPANS
    ) + (sum(s.name == "rasterizer.rasterize" for s in recorder.spans) / steps,
         projections.calls / steps, texts.calls / steps, rays.calls / steps,
         recorder.counter_total("rasterizer.fragments.tested") / steps,
         passes.calls / steps), misses


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=400,
                        help="repeats timed per layer (default 400)")
    repeats = parser.parse_args(argv).repeats
    if repeats < 1:
        parser.error("--repeats must be at least 1")
    payload = AppBackend()(Request(params=PARAMS), False)
    rows = [
        ("`AppBackend(request)` on the calling thread", backend_call(repeats)),
        ("`await ServingServer.submit(request)`", server_submit(repeats)),
        ("`WireSessionClient.render`, client in the same process",
         wire_render(repeats, AppBackend())),
        ("the wire with a backend that returns fixed bytes",
         wire_render(repeats, lambda request, degraded: payload)),
    ]
    open_ms, draws = fresh_open(repeats)
    rows.append((f"a fresh scene's open, `AppBackend(request)`: "
                 f"{draws:.2f} `Renderer.render` calls per open", open_ms))
    counts = zip(("serving-loop iterations", "sha256 objects", "Tasks created"),
                 wire_counts(repeats))
    print(f"Slicer 64x48, median of {repeats}:")
    print()
    print("| path | median |")
    print("|---|---|")
    for label, ms in rows:
        print(f"| {label} | {ms:.3f} ms |")
    print()
    print(f"Per wire repeat (row 3), mean of {repeats}:")
    print()
    print("| count | per repeat |")
    print("|---|---|")
    for label, per_repeat in counts:
        print(f"| {label} | {per_repeat:.2f} |")
    print()
    print(f"Per time step on explore_surface's grid, 64x48: median of {repeats} "
          f"steps; spans, mean ms per step over {repeats} more:")
    print()
    print("| stratum | step | " + " | ".join(f"`{name}`" for name in STEP_SPANS)
          + " | `rasterize` calls | `Camera.project` calls | `render_text` calls"
          " | tested centres | triangle-fragment passes |")
    print("|---|---|" + "---|" * (len(STEP_SPANS) + 5))
    kept: Dict[str, Dict[str, float]] = {}
    for template, variables in STEP_STRATA:
        (*times, rasterizes, projections, texts, _rays, tested, passes), kept[template] = \
            step_cost(template, variables, repeats)
        cells = " | ".join(f"{ms:.3f} ms" for ms in times)
        print(f"| {template} | {cells} | {rasterizes:.2f} | {projections:.2f} | {texts:.2f}"
              f" | {tested:.2f} | {passes:.2f} |")
    print()
    (median, *_, rays, _tested, _passes), misses = step_cost(
        "Volume", {"variable": "ta"}, repeats, VOLUME_GRID)
    print("Per time step on stream_animate's Volume grid, 64x48, the same steps:")
    print()
    print("| stratum | step | `Camera.pixel_rays` calls | `raycast.rays` misses |")
    print("|---|---|---|---|")
    print(f"| Volume | {median:.3f} ms | {rays:.2f} | {misses.get('raycast.rays', 0.0):.2f} |")
    print()
    print("Misses per time step of each kept site (`<site>.misses`), same steps:")
    print()
    print("| kept site | " + " | ".join(kept) + " |")
    print("|---|" + "---|" * len(kept))
    for site in sorted(set().union(*kept.values())):
        print(f"| `{site}` | " + " | ".join(
            f"{misses.get(site, 0.0):.2f}" for misses in kept.values()) + " |")


if __name__ == "__main__":
    main()
