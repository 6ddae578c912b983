"""The Isosurface plot.

"The Isosurface plot displays an isosurface derived from one variable's
data volume and colored by the spatially correspondent values from a
second variable's data volume.  It can produce views similar to a
volume rendering while facilitating the comparison of two variables."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.cdms.slabs import require_finite_range
from repro.cdms.variable import Variable
from repro.dv3d.interaction import number, number_pair
from repro.dv3d.plot import Plot3D
from repro.rendering.isosurface import color_surface_by_field, marching_tetrahedra
from repro.rendering.scene import Actor, Scene
from repro.util.errors import DV3DError


class IsosurfacePlot(Plot3D):
    """An isovalue surface of variable A, colored by variable B."""

    plot_type = "isosurface"
    added_variables = ("color_variable",)

    def __init__(
        self,
        variable: Variable,
        color_variable: Optional[Variable] = None,
        isovalue: Optional[float] = None,
        color_range: Optional[Tuple[float, float]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(variable, **kwargs)
        self.color_variable = color_variable
        lo, hi = self.scalar_range
        self.isovalue = float(isovalue) if isovalue is not None else 0.5 * (lo + hi)
        if color_variable is not None and color_range is None:
            color_range = require_finite_range(
                color_variable, DV3DError, what="color variable"
            )
        self.color_range = color_range

    # -- interactive ops ----------------------------------------------------

    def set_isovalue(self, value: float) -> float:
        """Set the level-set value (clamped to the data range)."""
        lo, hi = self.scalar_range
        self.isovalue = float(np.clip(value, lo, hi))
        return self.isovalue

    def adjust_isovalue(self, delta_fraction: float) -> float:
        """Shift the isovalue by a fraction of the data range (drag op)."""
        lo, hi = self.scalar_range
        return self.set_isovalue(self.isovalue + delta_fraction * (hi - lo))

    # -- geometry ---------------------------------------------------------------

    def extract_surface(self):
        """The current isosurface PolyData (colored if a second variable)."""
        surface = marching_tetrahedra(self.volume, self.isovalue, self.variable.id)
        if surface.n_points == 0:
            return surface
        if self.color_variable is not None:
            return color_surface_by_field(
                surface, self.volume, self.color_variable.id,
                self.colormap, self.color_range,
            )
        # single-variable surface: uniform color from the colormap midpoint
        colors = self.colormap.map_scalars(
            np.full(surface.n_points, self.isovalue), *self.scalar_range
        )
        return surface.with_colors(colors.astype(np.float32))

    def build_scene(self) -> Scene:
        scene = Scene()
        surface = self.extract_surface()
        if surface.n_points:
            scene.add_actor(Actor(surface, lighting=True, name="isosurface"))
        scene.add_actor(self.frame_actor())
        return scene

    # -- state ---------------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base.update(
            {
                "isovalue": self.isovalue,
                "color_variable": None if self.color_variable is None else self.color_variable.id,
                "color_range": None if self.color_range is None else list(self.color_range),
            }
        )
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """The base plot's keys, then the isovalue (clamped to the data
        range) and the colour range: none or empty leaves it, else two
        finite numbers, low not above high (a constant colour variable's
        own range is one value twice)."""
        isovalue = number(state, "isovalue", self.isovalue)
        color_range = self.color_range
        if state.get("color_range"):
            color_range = number_pair(state, "color_range")
            if color_range[1] < color_range[0]:
                raise DV3DError(f"bad color range {color_range!r}")
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            if "isovalue" in state:
                self.set_isovalue(isovalue)
            self.color_range = color_range

        return apply
