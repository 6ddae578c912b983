"""What one frame shows: a plot seen at one time step through one camera.

A :class:`View` is that record (size, time index, orbit, camera),
frozen so a frame's parameters can be kept beside it.
:meth:`View.parse` is the one parser of a render request's per-frame
keys (:data:`VIEW_KEYS`), and :meth:`View.draw` the one place a frame
is drawn from a view: the serving backend, the animators and the camera
tour all draw through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Union

from repro.dv3d.cell import DV3DCell
from repro.dv3d.interaction import number
from repro.dv3d.plot import Plot3D
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.util.errors import DV3DError

#: the request keys a :class:`View` is parsed from
VIEW_KEYS = ("width", "height", "timestep", "azimuth")
#: a degraded view divides each frame dimension by this
DEGRADED_SCALE = 4
#: floor for degraded views; below this frames stop being pictures
MIN_DEGRADED_PX = 8


@dataclass(frozen=True)
class View:
    """One frame's size, time step and camera.

    ``time_index`` ``None`` leaves the plot at the step it stands at;
    ``camera`` ``None`` means :meth:`~repro.dv3d.plot.Plot3D.resolve_camera`'s
    choice.  ``azimuth``/``elevation`` orbit that camera in degrees,
    unless both are ``None``: an orbit of 0.0 is still an orbit.
    """

    width: int
    height: int
    time_index: Optional[int] = None
    azimuth: Optional[float] = None
    elevation: Optional[float] = None
    camera: Optional[Camera] = None

    @classmethod
    def parse(cls, params: Mapping[str, Any]) -> "View":
        """The view a render request's :data:`VIEW_KEYS` ask for (64 x 48
        when it names no size).

        Raises :class:`DV3DError` for a size that is not a whole number
        of at least one pixel, a ``timestep`` that is not a whole number
        or an ``azimuth`` that is not a finite number (the rule of
        :func:`~repro.dv3d.interaction.number`).  Other keys are the
        caller's.
        """
        width = number(params, "width", 64, integral=True)
        height = number(params, "height", 48, integral=True)
        if width < 1 or height < 1:
            raise DV3DError(f"view size must be at least 1x1, got {width}x{height}")
        time_index = (number(params, "timestep", integral=True)
                      if "timestep" in params else None)
        azimuth = number(params, "azimuth") if "azimuth" in params else None
        return cls(width, height, time_index=time_index, azimuth=azimuth)

    def degraded(self) -> "View":
        """This view at ``1/DEGRADED_SCALE`` of each dimension, floored
        at ``MIN_DEGRADED_PX`` — the serving tier's breaker-open fallback."""
        return replace(
            self,
            width=max(self.width // DEGRADED_SCALE, MIN_DEGRADED_PX),
            height=max(self.height // DEGRADED_SCALE, MIN_DEGRADED_PX),
        )

    def draw(self, target: Union[Plot3D, DV3DCell]) -> Framebuffer:
        """Render *target* (a cell, furnished, or a bare plot) as this view."""
        plot = target.plot if isinstance(target, DV3DCell) else target
        if self.time_index is not None:
            plot.set_time_index(self.time_index)
        camera = plot.resolve_camera(self.camera)
        if self.azimuth is not None or self.elevation is not None:
            camera = plot.orbit(
                camera,
                0.0 if self.azimuth is None else self.azimuth,
                0.0 if self.elevation is None else self.elevation,
            )
        return target.render(self.width, self.height, camera=camera)
