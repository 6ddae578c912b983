"""The app backend: request params → spreadsheet cell → frame bytes.

:class:`AppBackend` adapts a headless UV-CDAT session
(:class:`~repro.app.application.Application`) to the server's backend
contract ``(request, degraded) -> bytes``.  Each distinct *scene* — the
(template, source, variables, size, selector, cell_params) tuple — gets
one spreadsheet slot, built lazily with ``create_plot`` on first use;
every later frame is that slot's live cell rendered again, so it rides
the cell's own memos (:meth:`~repro.dv3d.cell.DV3DCell.render`): an
orbit keeps the built scene and an unchanged request is a lookup of the
kept frame.  Those are always on and die with the cell; the ambient
content-keyed cache under ``Renderer.render`` is separate — opt-in,
shared across cells and processes, optionally on disk — and off here
unless the caller's ``CacheConfig`` enables it.  Frames are encoded as
deterministic binary PPM, so byte-identical responses are a meaningful
equality.

The Application and its workflow machinery are not thread-safe; the
backend serializes every call under one lock.  Parallelism at the
serving tier comes from coalescing and caching, not from concurrent
workflow mutation.

Request ``params`` contract (all optional but ``template``)::

    template   palette plot name          (default "Slicer")
    source     dataset source string      (default "synthetic_reanalysis")
    variables  dict of port -> var name   (default {"variable": "ta"})
    size       workflow grid size dict    (e.g. {"lat": 16, "lon": 16})
    selector   subset selector dict
    cell_params  extra DV3D cell params
    width / height  frame pixels          (defaults 64 x 48)
    timestep   time index into the plot   (animation axis)
    azimuth    camera orbit degrees from the default view (orbit axis)

``timestep`` and ``azimuth`` are deliberately *excluded* from the scene
digest: an animating or orbiting session mutates one long-lived scene
slot instead of materializing a workflow per frame, which is exactly
what sticky session affinity keeps warm.  So are ``width`` / ``height``:
every frame renders at its own request's size, and the first frame's
size only replaces the cell module's 320 x 240 default for the one
render its workflow does when it executes.  When the plotted variable is
a streamed :class:`~repro.cdms.lazy.LazyVariable`, each timestep render
is followed by a hint steering the variable's prefetch pipeline toward
``timestep + 1``, so the chunk for the session's likely next frame is in
flight before the demand (or speculative) render asks for it.

``degraded=True`` renders at ``1/degraded_scale`` resolution (floored
at 8 px) — the breaker-open fallback the server uses when the full
pipeline is failing or saturated.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.app.application import Application
from repro.cache.keys import cache_key
from repro.rendering.ppm import ppm_bytes
from repro.serving.config import ServingConfig
from repro.serving.request import Request
from repro.util.errors import ServingError

#: floor for degraded renders; below this frames stop being pictures
MIN_DEGRADED_PX = 8


class AppBackend:
    """Serve ``render`` requests out of one headless application session."""

    def __init__(
        self,
        app: Optional[Application] = None,
        config: Optional[ServingConfig] = None,
        project: str = "serving",
        default_source: str = "synthetic_reanalysis",
        default_template: str = "Slicer",
    ) -> None:
        self.app = app if app is not None else Application()
        self.config = config if config is not None else ServingConfig()
        self.default_source = default_source
        self.default_template = default_template
        self._lock = threading.Lock()
        #: scene digest -> (sheet_name, slot)
        self._scenes: Dict[str, Tuple[str, Tuple[int, int]]] = {}
        if project not in self.app.projects:
            self.app.new_project(project)
        self.app.current_project = project

    def __call__(self, request: Request, degraded: bool) -> bytes:
        if request.kind != "render":
            raise ServingError(
                f"AppBackend only serves kind='render', got {request.kind!r}"
            )
        params = dict(request.params)
        width = int(params.get("width", 64))
        height = int(params.get("height", 48))
        if degraded:
            scale = self.config.degraded_scale
            width = max(width // scale, MIN_DEGRADED_PX)
            height = max(height // scale, MIN_DEGRADED_PX)
        with self._lock:
            sheet_name, slot = self._ensure_scene(params, width, height)
            cell = self._cell(sheet_name, slot)
            camera = None
            timestep = None
            if "timestep" in params:
                timestep = int(params["timestep"])
                cell.plot.set_time_index(timestep)
            if "azimuth" in params:
                base = cell.plot.camera or cell.plot.default_camera()
                camera = base.orbit(float(params["azimuth"]), 0.0)
            framebuffer = cell.render(width, height, camera=camera)
            if timestep is not None:
                # only now: a hint before the render moves the prefetch
                # window past the chunk this frame still has to read
                self._hint_prefetch(cell, timestep + 1)
        return ppm_bytes(framebuffer.to_uint8())

    # -- scene management ---------------------------------------------------

    def _ensure_scene(
        self, params: Dict[str, Any], width: int, height: int
    ) -> Tuple[str, Tuple[int, int]]:
        """One slot per distinct scene; build the workflow on first use
        (its cell then renders once, at *width* x *height*)."""
        template = str(params.get("template", self.default_template))
        source = str(params.get("source", self.default_source))
        variables = dict(params.get("variables") or {"variable": "ta"})
        size = params.get("size")
        selector = params.get("selector")
        cell_params = params.get("cell_params")
        # timestep / azimuth are per-frame animation state, not scene
        # identity — one scene slot serves the whole gesture
        digest = cache_key(
            "serving.backend.scene",
            template, source, variables,
            size or {}, selector or {}, cell_params or {},
        )
        known = self._scenes.get(digest)
        if known is not None:
            return known
        sheet_name = f"scene_{len(self._scenes):04d}_{digest[:8]}"
        slot = (0, 0)
        # without a size the cell module would render at its 320x240 default
        sized_params = {"width": width, "height": height, **(cell_params or {})}
        self.app.create_plot(
            template, sheet_name, slot, source, variables,
            size=size, selector=selector, cell_params=sized_params,
        )
        self._scenes[digest] = (sheet_name, slot)
        return self._scenes[digest]

    def _cell(self, sheet_name: str, slot: Tuple[int, int]):
        """The live cell bound to *slot*, executing the workflow if needed."""
        sheet = self.app.project.sheets[sheet_name]
        cell_slot = sheet.get(slot[0], slot[1])
        if cell_slot is None or cell_slot.cell is None:
            self.app.project.execute_cell(sheet_name, slot[0], slot[1])
            cell_slot = sheet.get(slot[0], slot[1])
        return cell_slot.cell

    @staticmethod
    def _hint_prefetch(cell: Any, next_timestep: int) -> None:
        """Steer a streamed variable's prefetcher at the likely next frame."""
        hint = getattr(cell.plot.variable, "prefetch_hint", None)
        if hint is not None:
            hint(next_timestep)

    @property
    def scene_count(self) -> int:
        """How many distinct scenes this session has materialized."""
        with self._lock:
            return len(self._scenes)
