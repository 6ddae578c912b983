"""Polygonal geometry — the ``vtkPolyData`` analog.

A :class:`PolyData` holds points plus triangle and polyline
connectivity, with optional per-point scalars (for colormapping) and
per-point RGB colors.  Isosurface extraction, slice planes, streamlines
and glyphs all produce PolyData; the rasterizer consumes it.

Geometry whose points are read-only (:meth:`PolyData.freeze`) keeps its
projection for the last view it was drawn from, and what the
rasterizer derives from that projection beside it
(:meth:`PolyData.view_memo`): a frame whose camera and size did not
change projects only the geometry that is new.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.util.errors import RenderingError
from repro.util.kept import Kept, same_first

if TYPE_CHECKING:
    from repro.rendering.camera import Camera


def _fixed(array: np.ndarray) -> bool:
    """Whether *array* and every array it views are read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


class PolyData:
    """Points + triangles + polylines with optional point attributes."""

    def __init__(
        self,
        points: np.ndarray,
        triangles: Optional[np.ndarray] = None,
        lines: Optional[list] = None,
        scalars: Optional[np.ndarray] = None,
        colors: Optional[np.ndarray] = None,
    ) -> None:
        self.points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise RenderingError(f"points must be (n, 3), got {self.points.shape}")
        n = self.points.shape[0]
        if triangles is None:
            triangles = np.zeros((0, 3), dtype=np.intp)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.intp).reshape(-1, 3)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= n):
            raise RenderingError("triangle indices out of range")
        self.lines: list = [np.asarray(l, dtype=np.intp) for l in (lines or [])]
        for line in self.lines:
            if line.size and (line.min() < 0 or line.max() >= n):
                raise RenderingError("line indices out of range")
        self._set_attributes(scalars, colors)
        self._segments: Optional[np.ndarray] = None
        #: (projection, view memo), shared with the copies of :meth:`_recolored`
        self._view = Kept("geometry.projection", same_first)

    def _set_attributes(self, scalars: Optional[np.ndarray],
                        colors: Optional[np.ndarray]) -> None:
        n = self.points.shape[0]
        self.scalars = None if scalars is None else np.asarray(scalars, dtype=np.float64).reshape(-1)
        if self.scalars is not None and self.scalars.shape[0] != n:
            raise RenderingError("scalars length mismatch")
        self.colors = None if colors is None else np.asarray(colors, dtype=np.float32).reshape(-1, 3)
        if self.colors is not None and self.colors.shape[0] != n:
            raise RenderingError("colors length mismatch")

    def __repr__(self) -> str:
        return (
            f"PolyData(points={len(self.points)}, triangles={len(self.triangles)}, "
            f"lines={len(self.lines)})"
        )

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_triangles(self) -> int:
        return int(self.triangles.shape[0])

    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        if self.n_points == 0:
            return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mins = self.points.min(axis=0)
        maxs = self.points.max(axis=0)
        return (mins[0], maxs[0], mins[1], maxs[1], mins[2], maxs[2])

    def segments(self) -> np.ndarray:
        """``(2, n_segments)`` point indices of the two ends of every
        polyline segment, line after line — derived once, read-only."""
        if self._segments is None:
            ends = [(line[:-1], line[1:]) for line in self.lines if line.size > 1]
            segments = (np.array([np.concatenate(end) for end in zip(*ends)]) if ends
                        else np.zeros((2, 0), dtype=np.intp))
            segments.flags.writeable = False
            self._segments = segments
        return self._segments

    def freeze(self) -> "PolyData":
        """Make the points and connectivity read-only, so the geometry can
        be kept and its projection with it; returns ``self``."""
        for array in (self.points, self.triangles, *self.lines):
            array.flags.writeable = False
        return self

    # -- per view ------------------------------------------------------------------

    def project(self, camera: "Camera", width: int, height: int) -> np.ndarray:
        """``camera.project(self.points, width, height)``, kept (read-only)
        while the points are read-only, for the last (camera object,
        width, height); writable points are projected on every call."""
        return self.viewed(camera, width, height)[0]

    def view_memo(self, camera: "Camera", width: int, height: int) -> Dict[Hashable, Any]:
        """A dict kept beside the kept projection, for what is derived
        from it and this geometry's connectivity alone (a new empty dict
        on every call while the points are writable)."""
        if not _fixed(self.points):
            return {}
        return self.viewed(camera, width, height)[1]

    def viewed(self, camera: "Camera", width: int,
               height: int) -> Tuple[np.ndarray, Optional[Dict[Hashable, Any]]]:
        """``(projection, view memo)`` in one lookup: :meth:`project` and
        :meth:`view_memo`, except that writable points are projected
        beside ``None``, as nothing derived from them is kept."""
        if not _fixed(self.points):
            return camera.project(self.points, width, height), None
        return self._view.get((camera, (width, height)), lambda: (
            camera.project(self.points, width, height), {}))

    # -- attribute helpers ----------------------------------------------------

    def with_colors(self, colors: np.ndarray) -> "PolyData":
        return self._recolored(self.scalars, colors)

    def with_scalars(self, scalars: np.ndarray) -> "PolyData":
        return self._recolored(scalars, self.colors)

    def _recolored(self, scalars: Optional[np.ndarray],
                   colors: Optional[np.ndarray]) -> "PolyData":
        """A copy over these very points and connectivity (checked when
        this geometry was made) with other point attributes; it shares
        the segments and the kept view."""
        twin = PolyData.__new__(PolyData)
        twin.__dict__.update(self.__dict__)
        twin.lines = list(self.lines)
        twin._set_attributes(scalars, colors)
        return twin

    # -- derived quantities ------------------------------------------------------

    def triangle_normals(self) -> np.ndarray:
        """Per-triangle unit normals, ``(n_triangles, 3)`` (vectorized)."""
        p = self.points
        t = self.triangles
        e1 = p[t[:, 1]] - p[t[:, 0]]
        e2 = p[t[:, 2]] - p[t[:, 0]]
        normals = np.cross(e1, e2)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        return normals / np.maximum(lengths, 1e-30)

    def point_normals(self) -> np.ndarray:
        """Area-weighted per-point normals (smooth shading), ``(n, 3)``.

        The unnormalized triangle normal is formed column by column with
        ``np.cross``'s own expressions, and each point sums the normals
        of its triangles corner 0 first, then corner 1, then corner 2,
        in triangle order — one ``np.bincount`` per component over the
        concatenated corners, the order three ``np.add.at`` passes take,
        so the sums are the same floats.
        """
        corners = np.ascontiguousarray(self.triangles.T)  # (3 corners, n_tri)
        x, y, z = np.ascontiguousarray(self.points.T)
        e1x, e1y, e1z = (c.take(corners[1]) - c.take(corners[0]) for c in (x, y, z))
        e2x, e2y, e2z = (c.take(corners[2]) - c.take(corners[0]) for c in (x, y, z))
        corner_points = corners.reshape(-1)
        n = self.n_points
        normals = np.stack([
            np.bincount(corner_points, np.tile(component, 3), minlength=n)
            for component in (
                e1y * e2z - e1z * e2y,  # unnormalized = area-weighted
                e1z * e2x - e1x * e2z,
                e1x * e2y - e1y * e2x,
            )
        ], axis=1)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        return normals / np.maximum(lengths, 1e-30)

    def surface_area(self) -> float:
        """Total triangle surface area."""
        tri_normals = np.cross(
            self.points[self.triangles[:, 1]] - self.points[self.triangles[:, 0]],
            self.points[self.triangles[:, 2]] - self.points[self.triangles[:, 0]],
        )
        return float(0.5 * np.linalg.norm(tri_normals, axis=1).sum())

    def transformed(self, matrix: np.ndarray, translation: np.ndarray | None = None) -> "PolyData":
        """Apply a 3×3 linear transform (plus optional translation)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (3, 3):
            raise RenderingError("transform matrix must be 3x3")
        pts = self.points @ matrix.T
        if translation is not None:
            pts = pts + np.asarray(translation, dtype=np.float64)
        return PolyData(pts, self.triangles, self.lines, self.scalars, self.colors)

    @staticmethod
    def merge(*pieces: "PolyData") -> "PolyData":
        """Concatenate several PolyData objects into one."""
        pieces = tuple(p for p in pieces if p.n_points)
        if not pieces:
            return PolyData(np.zeros((0, 3)))
        points = np.concatenate([p.points for p in pieces])
        offsets = np.cumsum([0] + [p.n_points for p in pieces[:-1]])
        triangles = np.concatenate(
            [p.triangles + off for p, off in zip(pieces, offsets)]
        ) if any(p.n_triangles for p in pieces) else None
        lines: list = []
        for p, off in zip(pieces, offsets):
            lines.extend(line + off for line in p.lines)
        def gather(attr: str, default: float) -> Optional[np.ndarray]:
            if all(getattr(p, attr) is None for p in pieces):
                return None
            parts = []
            for p in pieces:
                value = getattr(p, attr)
                if value is None:
                    shape = (p.n_points,) if attr == "scalars" else (p.n_points, 3)
                    value = np.full(shape, default)
                parts.append(value)
            return np.concatenate(parts)
        return PolyData(points, triangles, lines, gather("scalars", 0.0), gather("colors", 0.7))


def plane_quad(corner: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray,
               nu: int = 2, nv: int = 2) -> PolyData:
    """A tessellated quad patch: corner + s·edge_u + t·edge_v, s,t ∈ [0,1]."""
    if nu < 2 or nv < 2:
        raise RenderingError("plane_quad needs nu, nv >= 2")
    s = np.linspace(0.0, 1.0, nu)
    t = np.linspace(0.0, 1.0, nv)
    gs, gt = np.meshgrid(s, t, indexing="ij")
    pts = (
        np.asarray(corner)[None, :]
        + gs.reshape(-1, 1) * np.asarray(edge_u)[None, :]
        + gt.reshape(-1, 1) * np.asarray(edge_v)[None, :]
    )
    # two triangles per grid cell
    ii, jj = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    base = (ii * nv + jj).reshape(-1)
    tri_a = np.stack([base, base + nv, base + 1], axis=1)
    tri_b = np.stack([base + nv, base + nv + 1, base + 1], axis=1)
    return PolyData(pts, np.concatenate([tri_a, tri_b]))


def box_outline(bounds: Tuple[float, float, float, float, float, float]) -> PolyData:
    """The 12-edge wireframe of an axis-aligned box (plot frame)."""
    x0, x1, y0, y1, z0, z1 = bounds
    corners = np.array(
        [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ]
    )
    edges = [
        [0, 1], [1, 2], [2, 3], [3, 0],
        [4, 5], [5, 6], [6, 7], [7, 4],
        [0, 4], [1, 5], [2, 6], [3, 7],
    ]
    return PolyData(corners, lines=[np.array(e) for e in edges])
