"""The Vector slicer plot.

"The Vector slicer plot provides a set of slice planes that can be
interactively dragged over a vector field dataset.  A slice through the
field at the plane's location is displayed as a vector glyph or
streamline plot on the plane.  This plot allows scientists to browse
the structure of variables (such as wind velocity) that have both
magnitude and direction."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.cdms.slabs import fold_finite_max
from repro.cdms.variable import Variable
from repro.dv3d.interaction import number
from repro.dv3d.plot import Plot3D
from repro.dv3d.translation import translate_vector_field
from repro.rendering.geometry import PolyData
from repro.rendering.glyphs import slice_plane_glyphs
from repro.rendering.image_data import ImageData
from repro.rendering.scene import Actor, Scene
from repro.rendering.streamline import (
    integrate_streamlines,
    plane_seed_grid,
    streamlines_to_polydata,
)
from repro.util.errors import DV3DError

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}
_MODES = ("glyphs", "streamlines")


def _speed_max(u: Variable, v: Variable) -> Optional[float]:
    """Max finite speed, folded slab-by-slab so lazy variables never
    materialize both components at once."""
    return fold_finite_max(
        lambda us, vs: np.sqrt(us.filled(np.nan) ** 2 + vs.filled(np.nan) ** 2), u, v
    )


class VectorSlicerPlot(Plot3D):
    """Glyph or streamline rendering of a vector field on slice planes."""

    plot_type = "vector_slicer"

    def __init__(
        self,
        u: Variable,
        v: Variable,
        w: Optional[Variable] = None,
        mode: str = "glyphs",
        plane: str = "z",
        glyph_stride: int = 4,
        seed_density: int = 10,
        **kwargs: Any,
    ) -> None:
        if plane not in _AXIS_NAMES:
            raise DV3DError(f"unknown plane {plane!r}")
        self.u, self.v, self.w = u, v, w
        self.plane = plane
        self.plane_position = 0.5
        # until apply_state below checks and sets the constructor's own
        self.mode = "glyphs"
        self.glyph_stride = self.seed_density = 1
        # the base class treats u as "the variable" (for animation/pick);
        # the scalar range colors by speed
        speed_max = _speed_max(u, v)
        if speed_max is None:
            raise DV3DError("vector field has no valid data")
        kwargs.setdefault("scalar_range", (0.0, speed_max))
        super().__init__(u, **kwargs)
        self.apply_state({"mode": mode, "glyph_stride": glyph_stride,
                          "seed_density": seed_density})

    def _build_volume(self) -> ImageData:
        plans = [self.translation_plan(name) for name in ("variable", "v")]
        plans.append(None if self.w is None else self.translation_plan("w"))
        return translate_vector_field(
            self.u, self.v, self.w, self.time_index, self.vertical_exaggeration,
            plans=plans,
        )

    # -- interactive ops ------------------------------------------------------

    def drag_slice(self, delta: float) -> float:
        self.plane_position = float(np.clip(self.plane_position + delta, 0.0, 1.0))
        return self.plane_position

    def set_mode(self, mode: str) -> str:
        if mode not in _MODES:
            raise DV3DError(f"mode must be 'glyphs' or 'streamlines', got {mode!r}")
        self.mode = mode
        return self.mode

    def toggle_mode(self) -> str:
        return self.set_mode("streamlines" if self.mode == "glyphs" else "glyphs")

    def plane_world_coordinate(self) -> float:
        axis = _AXIS_NAMES[self.plane]
        bounds = self.volume.bounds()
        lo, hi = bounds[2 * axis], bounds[2 * axis + 1]
        return lo + self.plane_position * (hi - lo)

    # -- geometry ----------------------------------------------------------------

    def _field_geometry(self) -> PolyData:
        axis = _AXIS_NAMES[self.plane]
        world = self.plane_world_coordinate()
        if self.mode == "glyphs":
            poly = slice_plane_glyphs(
                self.volume, "vectors", axis, world, stride=self.glyph_stride
            )
        else:
            seeds = plane_seed_grid(
                self.volume, axis, world, self.seed_density, self.seed_density
            )
            lines = integrate_streamlines(
                self.volume, "vectors", seeds, max_steps=150
            )
            poly = streamlines_to_polydata(lines, self.volume, "vectors")
        if poly.n_points and poly.scalars is not None:
            colors = self.colormap.map_scalars(poly.scalars, *self.scalar_range)
            poly = poly.with_colors(colors.astype(np.float32))
        return poly

    def build_scene(self) -> Scene:
        scene = Scene()
        geometry = self._field_geometry()
        if geometry.n_points:
            scene.add_actor(Actor(geometry, lighting=False, name=f"field-{self.mode}"))
        scene.add_actor(self.frame_actor())
        return scene

    # -- picking: report the vector, not just a scalar ------------------------------

    def pick_vector(self, world_point: np.ndarray) -> Dict[str, float]:
        point = np.asarray(world_point, dtype=np.float64).reshape(1, 3)
        vec = self.volume.sample_vector(point, "vectors")[0]
        return {
            "u": float(vec[0]),
            "v": float(vec[1]),
            "w": float(vec[2]),
            "speed": float(np.linalg.norm(vec)),
            "longitude": float(point[0, 0]),
            "latitude": float(point[0, 1]),
        }

    # -- state -------------------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base.update(
            {
                "mode": self.mode,
                "plane": self.plane,
                "plane_position": self.plane_position,
                "glyph_stride": self.glyph_stride,
                "seed_density": self.seed_density,
            }
        )
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """The base plot's keys, then the mode, the plane (an unknown one
        is ignored), its position, the glyph stride and the seed density
        — the constructor's mode, stride and density go through here too."""
        mode = state.get("mode", self.mode)
        if mode not in _MODES:
            raise DV3DError(f"mode must be 'glyphs' or 'streamlines', got {mode!r}")
        plane = state.get("plane")
        if not (isinstance(plane, str) and plane in _AXIS_NAMES):
            plane = self.plane
        position = number(state, "plane_position", self.plane_position)
        stride = number(state, "glyph_stride", self.glyph_stride, integral=True)
        density = number(state, "seed_density", self.seed_density, integral=True)
        if min(stride, density) < 1:
            raise DV3DError(
                f"glyph_stride and seed_density must be at least 1, got {stride}, {density}"
            )
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            self.mode = mode
            self.plane = plane
            self.plane_position = float(np.clip(position, 0.0, 1.0))
            self.glyph_stride = stride
            self.seed_density = density

        return apply
