"""The Slicer plot.

"The Slicer plot provides a set of slice planes that can be
interactively dragged over the dataset.  A slice through the data
volume at the plane's location is displayed as a pseudocolor image on
the plane.  A slice through a second data volume can also be overlaid
as a contour map over the first.  This tool allows scientists to very
quickly and easily browse the 3D structure of the dataset, compare
variables in 3D, and probe data values."

Implementation: each enabled plane (x/y/z) is a Gouraud-colored
triangle mesh built from the interpolated slice values; the optional
second variable contributes marching-squares contour polylines lifted
onto the same plane.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cdms.variable import Variable
from repro.dv3d.interaction import number
from repro.dv3d.plot import Plot3D
from repro.rendering.contour2d import contour_levels, marching_squares
from repro.rendering.geometry import PolyData
from repro.rendering.image_data import ImageData
from repro.rendering.scene import Actor, Scene
from repro.util.errors import DV3DError
from repro.util.kept import Kept

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


def slice_plane_geometry(
    volume: ImageData, axis: int, world: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(points, triangles)`` of the plane through *volume* at
    *world* along *axis*: one point per grid point of the other two axes
    (:meth:`ImageData.extract_slice`'s order), two triangles per cell."""
    u_axis, v_axis = (a for a in range(3) if a != axis)
    u_coords, v_coords = volume.axis_coordinates(u_axis), volume.axis_coordinates(v_axis)
    nu, nv = u_coords.size, v_coords.size
    gu, gv = np.meshgrid(u_coords, v_coords, indexing="ij")
    points = np.empty((nu * nv, 3))
    points[:, axis] = world
    points[:, u_axis] = gu.reshape(-1)
    points[:, v_axis] = gv.reshape(-1)
    ii, jj = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    base = (ii * nv + jj).reshape(-1)
    tri_a = np.stack([base, base + nv, base + 1], axis=1)
    tri_b = np.stack([base + nv, base + nv + 1, base + 1], axis=1)
    triangles = np.concatenate([tri_a, tri_b])
    points.flags.writeable = triangles.flags.writeable = False
    return points, triangles


class SlicerPlot(Plot3D):
    """Draggable orthogonal slice planes with pseudocolor + contours."""

    plot_type = "slicer"
    added_variables = ("overlay_variable",)

    def __init__(
        self,
        variable: Variable,
        overlay_variable: Optional[Variable] = None,
        enabled_planes: Tuple[str, ...] = ("x", "y", "z"),
        contour_count: int = 8,
        **kwargs: Any,
    ) -> None:
        super().__init__(variable, **kwargs)
        self.overlay_variable = overlay_variable
        self.enabled_planes: Tuple[str, ...] = ()
        self.contour_count = 0
        # positions are fractions [0, 1] of each axis span
        self.plane_positions: Dict[str, float] = {"x": 0.5, "y": 0.5, "z": 0.25}
        #: plane → its read-only geometry, which keeps its projection
        self._slice_geometry = {plane: Kept("dv3d.slice_plane", plot=self.plot_type)
                                for plane in _AXIS_NAMES}
        self.apply_state({"enabled_planes": enabled_planes, "contour_count": contour_count})

    # -- data -------------------------------------------------------------

    def plane_world_coordinate(self, plane: str) -> float:
        axis = _AXIS_NAMES[plane]
        bounds = self.volume.bounds()
        lo, hi = bounds[2 * axis], bounds[2 * axis + 1]
        return lo + self.plane_positions[plane] * (hi - lo)

    # -- interactive ops ------------------------------------------------------

    def drag_slice(self, plane: str, delta: float) -> float:
        """Drag a plane by *delta* (fraction of its axis span).

        This is the paper's headline slicer interaction; returns the
        new fractional position.
        """
        if plane not in _AXIS_NAMES:
            raise DV3DError(f"unknown slice plane {plane!r}")
        pos = float(np.clip(self.plane_positions[plane] + delta, 0.0, 1.0))
        self.plane_positions[plane] = pos
        return pos

    def toggle_plane(self, plane: str) -> bool:
        """Enable/disable a plane; returns the new enabled state."""
        if plane not in _AXIS_NAMES:
            raise DV3DError(f"unknown slice plane {plane!r}")
        if plane in self.enabled_planes:
            self.enabled_planes = tuple(p for p in self.enabled_planes if p != plane)
            return False
        self.enabled_planes = tuple(list(self.enabled_planes) + [plane])
        return True

    def probe(self, plane: str, u_frac: float, v_frac: float) -> Dict[str, float]:
        """Probe the data value at fractional coordinates on a plane."""
        axis = _AXIS_NAMES[plane]
        bounds = self.volume.bounds()
        other = [a for a in range(3) if a != axis]
        point = np.empty(3)
        point[axis] = self.plane_world_coordinate(plane)
        for frac, oax in zip((u_frac, v_frac), other):
            lo, hi = bounds[2 * oax], bounds[2 * oax + 1]
            point[oax] = lo + float(np.clip(frac, 0.0, 1.0)) * (hi - lo)
        return self.pick(point)

    # -- geometry construction ---------------------------------------------------

    def _slice_mesh(self, plane: str) -> PolyData:
        """Pseudocolor mesh of one slice plane: a copy of the plane's
        geometry, laid out once per (plane, world coordinate, volume
        grid), coloured with this step's values; the copy shares the
        plane's kept projection."""
        axis = _AXIS_NAMES[plane]
        world = self.plane_world_coordinate(plane)
        volume = self.volume
        key = (world, volume.dimensions, volume.origin, volume.spacing)
        geometry = self._slice_geometry[plane].get(
            key, lambda: PolyData(*slice_plane_geometry(volume, axis, world)))
        values = volume.slice_values(axis, world, name=self.variable.id).reshape(-1)
        colors = self.colormap.map_scalars(values, *self.scalar_range)
        return geometry.with_scalars(np.nan_to_num(values, nan=0.0)).with_colors(
            colors.astype(np.float32))

    def _contour_overlay(self, plane: str) -> Optional[PolyData]:
        """Second-variable contour polylines lifted onto a plane."""
        if self.overlay_variable is None:
            return None
        axis = _AXIS_NAMES[plane]
        world = self.plane_world_coordinate(plane)
        values, u_coords, v_coords = self.volume.extract_slice(
            axis, world, name=self.overlay_variable.id
        )
        if not np.isfinite(values).any():
            return None
        other = [a for a in range(3) if a != axis]
        pieces: List[np.ndarray] = []
        for level in contour_levels(values, self.contour_count):
            pieces.extend(marching_squares(values, float(level), u_coords, v_coords))
        if not pieces:
            return None
        n_seg = len(pieces)
        pts = np.empty((2 * n_seg, 3))
        seg = np.asarray(pieces)  # (n_seg, 2, 2)
        flat = seg.reshape(-1, 2)
        pts[:, axis] = world
        pts[:, other[0]] = flat[:, 0]
        pts[:, other[1]] = flat[:, 1]
        # nudge contours off the plane toward the camera side to avoid z-fighting
        pts[:, axis] += 1e-3 * max(self.volume.spacing)
        lines = [np.array([2 * i, 2 * i + 1]) for i in range(n_seg)]
        return PolyData(pts, lines=lines)

    def build_scene(self) -> Scene:
        scene = Scene()
        for plane in self.enabled_planes:
            scene.add_actor(Actor(self._slice_mesh(plane), lighting=False,
                                  name=f"slice-{plane}"))
            overlay = self._contour_overlay(plane)
            if overlay is not None:
                scene.add_actor(
                    Actor(overlay, line_color=(0.05, 0.05, 0.05), lighting=False,
                          name=f"contours-{plane}")
                )
        scene.add_actor(self.frame_actor())
        return scene

    # -- state ----------------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base.update(
            {
                "enabled_planes": list(self.enabled_planes),
                "plane_positions": dict(self.plane_positions),
                "contour_count": self.contour_count,
            }
        )
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """The base plot's keys, then the planes, their positions and the
        contour count — the constructor's arguments go through here too.
        Positions of unknown planes are ignored."""
        planes = state.get("enabled_planes", self.enabled_planes)
        if not isinstance(planes, (list, tuple)) or not all(
            isinstance(plane, str) and plane in _AXIS_NAMES for plane in planes
        ):
            raise DV3DError(f"enabled planes must be a list of x/y/z, got {planes!r}")
        positions = state.get("plane_positions", {})
        if not isinstance(positions, dict):
            raise DV3DError(f"plane_positions must be a mapping, got {positions!r}")
        positions = {plane: number(positions, plane)
                     for plane in positions if plane in _AXIS_NAMES}
        count = number(state, "contour_count", self.contour_count, integral=True)
        if count < 0:
            raise DV3DError(f"contour_count must be at least 0, got {count}")
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            self.enabled_planes = tuple(planes)
            for plane, pos in positions.items():
                self.plane_positions[plane] = float(np.clip(pos, 0.0, 1.0))
            self.contour_count = count

        return apply
