"""Animation over a data dimension.

"Animating over one of the data dimensions (typically time) provides a
very effective method for viewing and browsing 4D data."  The
:class:`Animator` steps a plot (or cell) through its animation
dimension, rendering each frame; frames can be saved as numbered PPM
files or returned for inspection.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.dv3d.plot import Plot3D
from repro.dv3d.view import View
from repro.rendering.camera import Camera
from repro.rendering.ppm import write_ppm
from repro.util.errors import DV3DError, StreamingError

PathLike = Union[str, Path]


class Animator:
    """Renders an animation sequence from a plot or cell."""

    def __init__(self, target: Union[Plot3D, DV3DCell]) -> None:
        #: what renders the frames: the cell (furnished) or the bare plot
        self.target = target
        self.plot = target.plot if isinstance(target, DV3DCell) else target
        if self.plot.n_timesteps < 1:
            raise DV3DError("nothing to animate")

    @property
    def n_frames(self) -> int:
        return self.plot.n_timesteps

    def render_frames(
        self,
        width: int = 320,
        height: int = 240,
        camera: Optional[Camera] = None,
        start: int = 0,
        count: Optional[int] = None,
        stride: int = 1,
    ) -> List[np.ndarray]:
        """Render frames as uint8 arrays, restoring the original time index.

        The camera is fixed across frames (the plot's default framing
        depends on the grid, not the step) so the animation browses the
        data, not the view.  ``count`` may exceed the number of
        timesteps: the cursor wraps modulo the time axis, looping the
        animation.
        """
        return self._animate(width, height, camera, start, count, stride)

    def _animate(self, width: int, height: int, camera: Optional[Camera],
                 start: int, count: Optional[int], stride: int) -> List[Any]:
        """The one frame loop: what :meth:`_draw` made of each step's
        :class:`View`, in order."""
        if stride < 1:
            raise DV3DError("stride must be >= 1")
        total = self.n_frames
        count = total if count is None else count
        original = self.plot.time_index
        drawn: List[Any] = []
        try:
            for step in range(count):
                index = (start + step * stride) % total
                drawn.append(self._draw(View(width, height, index, camera=camera), drawn))
        finally:
            self.plot.set_time_index(original)
        return drawn

    def _draw(self, view: View, drawn: List[Any]) -> Any:
        """One frame of the loop (*drawn*: what the steps before it made)."""
        return view.draw(self.target).to_uint8()

    def save_frames(
        self,
        directory: PathLike,
        prefix: str = "frame",
        **render_kwargs,
    ) -> List[Path]:
        """Render and write numbered PPM files; returns the paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for i, frame in enumerate(self.render_frames(**render_kwargs)):
            path = directory / f"{prefix}_{i:04d}.ppm"
            write_ppm(path, frame)
            paths.append(path)
        return paths


@dataclass(frozen=True)
class FrameRecord:
    """How one animation frame was produced.

    ``status`` is ``"ok"`` or ``"degraded"``; ``source`` says which rung
    of the degradation ladder delivered the pixels: ``"stream"`` (full
    resolution), ``"lowres"`` (verified fallback slab), ``"previous"``
    (last good frame re-served), or ``"blank"`` (nothing to serve yet).
    """

    index: int
    status: str
    source: str


class StreamingAnimator(Animator):
    """An :class:`Animator` that degrades instead of aborting.

    For plots over lazy streaming variables, a chunk that stays
    unreadable after the reader's retry budget normally raises
    :class:`~repro.util.errors.StreamingError`.  This animator catches
    it per frame and walks the degradation ladder:

    1. re-render inside the variables' :meth:`degraded` context, so the
       unreadable chunk is substituted by its verified low-resolution
       companion;
    2. failing that, re-serve the previous successfully rendered frame;
    3. with no previous frame, emit a blank frame.

    Every frame is accounted: ``streaming.frames.ok`` /
    ``streaming.frames.degraded`` counters and a :class:`FrameRecord`
    per frame.  The animation loop itself never raises for data
    reasons — the contract the chaos tests pin.
    """

    def render_frames_with_status(
        self,
        width: int = 320,
        height: int = 240,
        camera: Optional[Camera] = None,
        start: int = 0,
        count: Optional[int] = None,
        stride: int = 1,
    ) -> Tuple[List[np.ndarray], List[FrameRecord]]:
        drawn = self._animate(width, height, camera, start, count, stride)
        records = [record for _, record in drawn]
        if obs.enabled():
            for record in records:
                if record.status == "ok":
                    obs.counter("streaming.frames.ok")
                else:
                    obs.counter("streaming.frames.degraded", source=record.source)
        return [frame for frame, _ in drawn], records

    def render_frames(self, *args, **kwargs) -> List[np.ndarray]:
        frames, _ = self.render_frames_with_status(*args, **kwargs)
        return frames

    # -- the ladder ---------------------------------------------------------

    def _degradable_variables(self) -> List[object]:
        """Every plot variable that supports the degraded() context."""
        candidates = [
            getattr(self.plot, name, None)
            for name in ("variable", "color_variable", "u", "v", "w")
        ]
        seen: List[object] = []
        for var in candidates:
            if var is not None and hasattr(var, "degraded") and var not in seen:
                seen.append(var)
        return seen

    def _draw(
        self, view: View, drawn: List[Tuple[np.ndarray, FrameRecord]]
    ) -> Tuple[np.ndarray, FrameRecord]:
        # the camera fit reads the (possibly degraded) volume's geometry,
        # which depends only on axes — identical across ladder rungs
        index = view.time_index
        try:
            return view.draw(self.target).to_uint8(), FrameRecord(index, "ok", "stream")
        except StreamingError:
            self.plot.invalidate()
        try:
            with contextlib.ExitStack() as stack:
                for var in self._degradable_variables():
                    stack.enter_context(var.degraded())
                frame = view.draw(self.target).to_uint8()
            return frame, FrameRecord(index, "degraded", "lowres")
        except StreamingError:
            pass
        finally:
            # neither the low-resolution volume nor any scene or frame made
            # from it may outlive the degraded() context: the next render
            # of this index reads the chunk again
            self.plot.invalidate()
        if drawn:
            return drawn[-1][0].copy(), FrameRecord(index, "degraded", "previous")
        return (
            np.zeros((view.height, view.width, 3), dtype=np.uint8),
            FrameRecord(index, "degraded", "blank"),
        )


class CameraTour:
    """Animate the *view* instead of the data: an orbital fly-around.

    The complement of :class:`Animator` for the paper's "interactive
    query, browse, navigation" feature set — the data stays at one time
    step while the camera orbits the scene, producing frames for a
    turntable movie (the standard way a 3-D structure is presented).
    """

    def __init__(self, target: Union[Plot3D, DV3DCell]) -> None:
        self.target = target

    def render_orbit(
        self,
        n_frames: int = 12,
        total_azimuth_deg: float = 360.0,
        elevation_deg: float = 0.0,
        width: int = 320,
        height: int = 240,
    ) -> List[np.ndarray]:
        """Render *n_frames* around the scene, each an orbit of the
        plot's camera; the plot's camera itself never moves."""
        if n_frames < 1:
            raise DV3DError("n_frames must be >= 1")
        step = total_azimuth_deg / n_frames
        return [
            View(width, height, azimuth=step * i, elevation=elevation_deg)
            .draw(self.target).to_uint8()
            for i in range(n_frames)
        ]

    def save_orbit(
        self,
        directory: PathLike,
        prefix: str = "orbit",
        **render_kwargs,
    ) -> List[Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for i, frame in enumerate(self.render_orbit(**render_kwargs)):
            path = directory / f"{prefix}_{i:04d}.ppm"
            write_ppm(path, frame)
            paths.append(path)
        return paths
