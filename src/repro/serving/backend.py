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
backend serializes every call under one lock, so a caller on another
thread never renders beside the server's serving loop.  Parallelism at
the serving tier comes from coalescing and caching, not from concurrent
workflow mutation.

Request ``params`` contract (all optional).  The scene keys name the
scene; the :class:`~repro.dv3d.view.View` keys name what one frame of
it shows, and :meth:`View.parse <repro.dv3d.view.View.parse>` is their
one parser::

    scene keys (SCENE_KEYS)
    template   palette plot name          (default "Slicer")
    source     dataset source string      (default "synthetic_reanalysis")
    variables  dict of port -> var name   (default {"variable": "ta"})
    size       generator grid overrides   (e.g. {"nlat": 16, "nlon": 16})
    selector   subset selector dict
    cell_params  extra DV3D cell params
    view keys (VIEW_KEYS)
    width / height  frame pixels          (defaults 64 x 48)
    timestep   time index into the plot   (animation axis)
    azimuth    camera orbit degrees from the plot's camera (orbit axis)

Any other top-level key, a size that is not a whole number of at least
one pixel, a size whose PPM would not fit one ``FRAME``
(:data:`~repro.util.framing.MAX_PAYLOAD_BYTES`), a ``timestep`` that
is not a whole number or an ``azimuth`` that is not a finite number
raises :class:`~repro.util.errors.RequestError` before a scene is
looked up or built; the server answers it ``error`` and feeds no
breaker with it.  So does a synthetic ``source``'s ``size`` that
:func:`repro.data.catalog.grid_size` refuses for the template (a
Hovmöller plot needs two time steps), and (once its workflow ran) a
scene naming no such source, ``.cdz`` or variable.  A scene whose
workflow fails leaves no vistrail and no executor memo entry behind.
The nested ``selector`` and ``cell_params`` are the workflow's to check.

The view keys are deliberately *excluded* from the scene digest: an
animating or orbiting session mutates one long-lived scene cell
instead of building a workflow per frame, and every session that asks
for the scene draws from that one cell.  Building a scene draws nothing: each
frame is drawn once, by its view.  When the plotted variable is a streamed
:class:`~repro.cdms.lazy.LazyVariable`, a timestep render reads the
chunk holding that timestep on the calling thread, inside the render;
nothing reads ahead of the session.

``degraded=True`` draws :meth:`View.degraded
<repro.dv3d.view.View.degraded>` — a quarter of each frame dimension,
floored at 8 px — the fallback the server uses while its circuit
breaker is open.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Optional

from repro.app.application import Application
from repro.cache.keys import json_key
from repro.data.catalog import GRID_MINIMA, grid_size
from repro.dv3d.view import VIEW_KEYS, View
from repro.provenance.vistrail import Vistrail
from repro.rendering.ppm import ppm_bytes, ppm_header
from repro.serving.request import Request
from repro.util.errors import (CDMSError, DV3DError, ModuleExecutionError, NotFoundError,
                               RequestError)
from repro.util.framing import MAX_PAYLOAD_BYTES

#: the request keys that name a scene; with the view's, all a request may carry
SCENE_KEYS = ("template", "source", "variables", "size", "selector", "cell_params")
REQUEST_KEYS = frozenset(SCENE_KEYS + VIEW_KEYS)


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
        params = request.params
        view = self._parse(params)
        if degraded:
            view = view.degraded()
        with self._lock:
            framebuffer = view.draw(self._scene_cell(params))
        return ppm_bytes(framebuffer.to_uint8())

    @staticmethod
    def _parse(params: Mapping[str, Any]) -> View:
        """The frame's view; :class:`RequestError` for a request that
        carries an unknown key or a malformed view key."""
        unknown = sorted(params.keys() - REQUEST_KEYS)
        if unknown:
            raise RequestError(f"unknown request params {unknown}")
        try:
            view = View.parse(params)
        except DV3DError as exc:
            raise RequestError(f"malformed request: {exc}") from exc
        size = len(ppm_header(view.width, view.height)) + 3 * view.width * view.height
        if size > MAX_PAYLOAD_BYTES:
            raise RequestError(f"a {size}-byte frame exceeds the FRAME payload bound")
        return view

    # -- scene management ---------------------------------------------------

    def _scene_cell(self, params: Mapping[str, Any]):
        """The scene's live cell, hosted under the scene's digest; its
        workflow is built on first use."""
        template = str(params.get("template", self.default_template))
        source = str(params.get("source", self.default_source))
        variables = dict(params.get("variables") or {"variable": "ta"})
        size = params.get("size")
        if source in GRID_MINIMA:
            try:
                grid_size(source, size, template)
            except CDMSError as exc:
                raise RequestError(f"malformed request: {exc}") from exc
        selector = params.get("selector")
        cell_params = params.get("cell_params")
        # the view keys are per-frame state, not scene identity — one
        # scene cell serves the whole gesture
        digest = json_key(
            "serving.backend.scene",
            template, source, variables,
            size or {}, selector or {}, cell_params or {},
        )
        project = self.app.project
        name = f"scene_{digest}"
        added = name not in project.vistrails
        if added:
            vistrail = Vistrail(name, project.registry)
            self.app.palette.get(template).instantiate(
                vistrail, source, variables,
                size=size, selector=selector, cell_params=cell_params,
            )
            project.vistrails[name] = vistrail
        pipeline = project.vistrails[name].pipeline
        sink = pipeline.sinks()[0]
        try:
            return project.node.execute(digest, pipeline, sink).output(sink, "cell")
        except Exception as exc:
            if added:  # a scene that never ran leaves no vistrail behind
                del project.vistrails[name]
            if isinstance(exc, ModuleExecutionError) and isinstance(exc.original, NotFoundError):
                raise RequestError(f"malformed request: {exc.original}") from exc
            raise
