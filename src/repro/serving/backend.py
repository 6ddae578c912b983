"""The app backend: request params → spreadsheet cell → frame bytes.

:class:`AppBackend` adapts a headless UV-CDAT session
(:class:`~repro.app.application.Application`) to the server's backend
contract ``(request, degraded) -> bytes``.  Each distinct *scene* — the
(template, source, variables, size, selector, cell_params) tuple — is
a palette workflow, built on first use into a vistrail of the backend's
project, whose :class:`~repro.hyperwall.client.DisplayNode` hosts the
cell under the scene's digest.  Every frame re-executes it, which
returns the live cell, so a frame rides the cell's own memos
(:meth:`~repro.dv3d.cell.DV3DCell.render`): an orbit keeps the built
scene and an unchanged request is a lookup of the kept frame.  Those
are always on and die with the cell; the content-keyed result cache
is the server's, handed to it at construction, and sits in front of
this backend rather than under it.  Frames are encoded as
deterministic binary PPM, so byte-identical responses are a meaningful
equality.

The Application and its workflow machinery are not thread-safe; the
backend serializes every call under one lock, so the server's slots
share one render at a time.  Parallelism at the serving tier comes from
coalescing and caching, not from concurrent workflow mutation.

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
cell instead of building a workflow per frame, which is exactly
what sticky session affinity keeps warm.  So are ``width`` / ``height``:
every frame renders at its own request's size, and the first frame's
size only replaces the cell module's 320 x 240 default for the one
render its workflow does when it executes.  When the plotted variable is
a streamed :class:`~repro.cdms.lazy.LazyVariable`, a timestep render
reads the chunk holding that timestep on the slot's thread, inside the
render; nothing reads ahead of the session.

``degraded=True`` renders at ``1/DEGRADED_SCALE`` of each frame
dimension (floored at 8 px) — the fallback the server uses while its
circuit breaker is open.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.app.application import Application
from repro.cache.keys import cache_key
from repro.provenance.vistrail import Vistrail
from repro.rendering.ppm import ppm_bytes
from repro.serving.request import Request

#: a degraded render divides each frame dimension by this
DEGRADED_SCALE = 4
#: floor for degraded renders; below this frames stop being pictures
MIN_DEGRADED_PX = 8


class AppBackend:
    """Serve render requests out of one headless application session."""

    def __init__(
        self,
        app: Optional[Application] = None,
        project: str = "serving",
        default_source: str = "synthetic_reanalysis",
        default_template: str = "Slicer",
    ) -> None:
        self.app = app if app is not None else Application()
        self.default_source = default_source
        self.default_template = default_template
        self._lock = threading.Lock()
        if project not in self.app.projects:
            self.app.new_project(project)
        self.app.current_project = project

    def __call__(self, request: Request, degraded: bool) -> bytes:
        params = dict(request.params)
        width = int(params.get("width", 64))
        height = int(params.get("height", 48))
        if degraded:
            width = max(width // DEGRADED_SCALE, MIN_DEGRADED_PX)
            height = max(height // DEGRADED_SCALE, MIN_DEGRADED_PX)
        with self._lock:
            cell = self._scene_cell(params, width, height)
            camera = None
            if "timestep" in params:
                cell.plot.set_time_index(int(params["timestep"]))
            if "azimuth" in params:
                base = cell.plot.camera or cell.plot.default_camera()
                camera = base.orbit(float(params["azimuth"]), 0.0)
            framebuffer = cell.render(width, height, camera=camera)
        return ppm_bytes(framebuffer.to_uint8())

    # -- scene management ---------------------------------------------------

    def _scene_cell(self, params: Dict[str, Any], width: int, height: int):
        """The scene's live cell, hosted under the scene's digest; its
        workflow is built on first use (the cell then renders once, at
        *width* x *height*)."""
        template = str(params.get("template", self.default_template))
        source = str(params.get("source", self.default_source))
        variables = dict(params.get("variables") or {"variable": "ta"})
        size = params.get("size")
        selector = params.get("selector")
        cell_params = params.get("cell_params")
        # timestep / azimuth are per-frame animation state, not scene
        # identity — one scene cell serves the whole gesture
        digest = cache_key(
            "serving.backend.scene",
            template, source, variables,
            size or {}, selector or {}, cell_params or {},
        )
        project = self.app.project
        name = f"scene_{digest}"
        if name not in project.vistrails:
            vistrail = Vistrail(name, project.registry)
            # without a size the cell module would render at its 320x240 default
            sized_params = {"width": width, "height": height, **(cell_params or {})}
            self.app.palette.get(template).instantiate(
                vistrail, source, variables,
                size=size, selector=selector, cell_params=sized_params,
            )
            project.vistrails[name] = vistrail
        pipeline = project.vistrails[name].pipeline
        sink = pipeline.sinks()[0]
        return project.node.execute(digest, pipeline, sink).output(sink, "cell")
