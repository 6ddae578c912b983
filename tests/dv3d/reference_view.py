"""The per-frame view arithmetic — the reference :class:`repro.dv3d.view.View`
is compared against.

These are the spellings that shipped in ``src/`` until every frame was
drawn through one ``View``, moved here verbatim: the serving backend's
own size, degraded-size, ``timestep`` and ``azimuth`` handling, and the
frame loops of ``Animator``, ``StreamingAnimator`` (its degradation
ladder included) and ``CameraTour``.  Each function takes what the
method of the same name was called on and returns what it returned.
Never imported from ``src/``.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dv3d.animation import FrameRecord
from repro.dv3d.cell import DV3DCell
from repro.rendering.camera import Camera
from repro.rendering.ppm import ppm_bytes
from repro.util.errors import DV3DError, StreamingError

DEGRADED_SCALE = 4
MIN_DEGRADED_PX = 8


def _plot(target):
    return target.plot if isinstance(target, DV3DCell) else target


def backend_call(backend, params: Dict[str, Any], degraded: bool) -> bytes:
    """``AppBackend.__call__`` on *backend*, with *params* as the request's."""
    params = dict(params)
    width = int(params.get("width", 64))
    height = int(params.get("height", 48))
    if degraded:
        width = max(width // DEGRADED_SCALE, MIN_DEGRADED_PX)
        height = max(height // DEGRADED_SCALE, MIN_DEGRADED_PX)
    with backend._lock:
        cell = backend._scene_cell(params)
        return backend_frame(cell, params, width, height)


def backend_frame(cell, params: Dict[str, Any], width: int, height: int) -> bytes:
    """The view half of ``AppBackend.__call__``: *cell* at the request's
    ``timestep`` and ``azimuth``, encoded."""
    camera = None
    if "timestep" in params:
        cell.plot.set_time_index(int(params["timestep"]))
    if "azimuth" in params:
        base = cell.plot.camera or cell.plot.default_camera()
        camera = base.orbit(float(params["azimuth"]), 0.0)
    framebuffer = cell.render(width, height, camera=camera)
    return ppm_bytes(framebuffer.to_uint8())


def render_frames(target, width: int = 320, height: int = 240,
                  camera: Optional[Camera] = None, start: int = 0,
                  count: Optional[int] = None, stride: int = 1) -> List[np.ndarray]:
    """``Animator(target).render_frames(...)``."""
    plot = _plot(target)
    if stride < 1:
        raise DV3DError("stride must be >= 1")
    total = plot.n_timesteps
    count = total if count is None else count
    original = plot.time_index
    cam = camera or plot.camera
    frames: List[np.ndarray] = []
    try:
        for step in range(count):
            index = (start + step * stride) % total
            plot.set_time_index(index)
            if cam is None:
                cam = plot.default_camera()
            frames.append(target.render(width, height, camera=cam).to_uint8())
    finally:
        plot.set_time_index(original)
    return frames


def render_frames_with_status(
    target, width: int = 320, height: int = 240, camera: Optional[Camera] = None,
    start: int = 0, count: Optional[int] = None, stride: int = 1,
) -> Tuple[List[np.ndarray], List[FrameRecord]]:
    """``StreamingAnimator(target).render_frames_with_status(...)``
    (its ``streaming.frames.*`` counters left out)."""
    plot = _plot(target)
    if stride < 1:
        raise DV3DError("stride must be >= 1")
    total = plot.n_timesteps
    count = total if count is None else count
    original = plot.time_index
    cam = camera or plot.camera
    frames: List[np.ndarray] = []
    records: List[FrameRecord] = []
    try:
        for step in range(count):
            index = (start + step * stride) % total
            plot.set_time_index(index)
            frame, record, cam = _render_one(target, index, width, height, cam, frames)
            frames.append(frame)
            records.append(record)
    finally:
        plot.set_time_index(original)
    return frames, records


def _degradable_variables(plot) -> List[object]:
    candidates = [
        getattr(plot, name, None)
        for name in ("variable", "color_variable", "u", "v", "w")
    ]
    seen: List[object] = []
    for var in candidates:
        if var is not None and hasattr(var, "degraded") and var not in seen:
            seen.append(var)
    return seen


def _render_raw(target, width, height, cam):
    if cam is None:
        cam = _plot(target).default_camera()
    return target.render(width, height, camera=cam).to_uint8(), cam


def _render_one(target, index, width, height, cam, previous_frames):
    plot = _plot(target)
    try:
        frame, cam = _render_raw(target, width, height, cam)
        return frame, FrameRecord(index, "ok", "stream"), cam
    except StreamingError:
        plot.invalidate()
    try:
        with contextlib.ExitStack() as stack:
            for var in _degradable_variables(plot):
                stack.enter_context(var.degraded())
            frame, cam = _render_raw(target, width, height, cam)
        return frame, FrameRecord(index, "degraded", "lowres"), cam
    except StreamingError:
        pass
    finally:
        plot.invalidate()
    if previous_frames:
        return previous_frames[-1].copy(), FrameRecord(index, "degraded", "previous"), cam
    return (
        np.zeros((height, width, 3), dtype=np.uint8),
        FrameRecord(index, "degraded", "blank"),
        cam,
    )


def render_orbit(target, n_frames: int = 12, total_azimuth_deg: float = 360.0,
                 elevation_deg: float = 0.0, width: int = 320,
                 height: int = 240) -> List[np.ndarray]:
    """``CameraTour(target).render_orbit(...)``."""
    plot = _plot(target)
    if n_frames < 1:
        raise DV3DError("n_frames must be >= 1")
    original = plot.camera
    camera = original or plot.default_camera()
    step = total_azimuth_deg / n_frames
    frames: List[np.ndarray] = []
    try:
        for i in range(n_frames):
            view = camera.orbit(step * i, elevation_deg)
            frames.append(target.render(width, height, camera=view).to_uint8())
    finally:
        plot.camera = original
    return frames
