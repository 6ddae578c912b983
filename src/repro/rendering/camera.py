"""Perspective camera with interactive navigation and stereo support.

DV3D cells offer "navigation controls" and "active and passive 3D
stereo visualization support" (via VTK).  The camera here provides the
world→clip transform chain the rasterizer and ray caster share, the
orbit/zoom/pan/roll operations the interaction layer maps mouse drags
onto, and :meth:`Camera.stereo_pair` for left/right eye rendering.

Coordinate conventions: right-handed world space; camera looks from
``position`` toward ``focal_point`` with ``view_up`` approximately up.
NDC x/y in [-1, 1]; screen origin at the top-left pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.util.errors import RenderingError


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise RenderingError("cannot normalize zero-length vector")
    return v / norm


def _cross(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """``np.cross`` of two 3-vectors without its axis handling.

    The same three products and differences, each rounded once, so the
    result is bit-identical (signed zeros and infinities included).
    """
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _coincide(a: Sequence[float], b: Sequence[float]) -> bool:
    """``np.allclose(a, b)`` of two 3-vectors, written in scalar math.

    Per component: within ``1e-8 + 1e-5 * |y|`` of a finite ``y``, or
    equal (so equal infinities coincide); NaN never does.
    """
    return all(
        (abs(x - y) <= 1e-8 + 1e-5 * abs(y) and math.isfinite(y)) or x == y
        for x, y in zip(map(float, a), map(float, b))
    )


@dataclass(frozen=True)
class Camera:
    """An immutable perspective camera; navigation returns new cameras."""

    position: Tuple[float, float, float] = (0.0, 0.0, 10.0)
    focal_point: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    view_up: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    fov_degrees: float = 30.0
    near: float = 0.01
    far: float = 1000.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.fov_degrees <= 170.0:
            raise RenderingError(f"fov {self.fov_degrees} out of range")
        if self.near <= 0 or self.far <= self.near:
            raise RenderingError(f"bad clip planes near={self.near} far={self.far}")
        if _coincide(self.position, self.focal_point):
            raise RenderingError("camera position coincides with focal point")

    # -- basis ------------------------------------------------------------

    def basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed (right, up, forward) unit vectors (read-only)."""
        return self._basis

    @cached_property
    def _basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # computed once per camera: every actor of a frame projects through
        # it.  Not a field, so ``==`` and ``hash`` ignore it.
        pos = np.asarray(self.position, dtype=np.float64)
        foc = np.asarray(self.focal_point, dtype=np.float64)
        forward = _normalize(foc - pos)
        up_hint = np.asarray(self.view_up, dtype=np.float64)
        right = _cross(forward, up_hint)
        if np.linalg.norm(right) < 1e-9:  # up parallel to view direction
            up_hint = np.array([0.0, 0.0, 1.0]) if abs(forward[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
            right = _cross(forward, up_hint)
        right = _normalize(right)
        up = _normalize(_cross(right, forward))
        for vector in (right, up, forward):
            vector.flags.writeable = False
        return right, up, forward

    @property
    def distance(self) -> float:
        return float(
            np.linalg.norm(np.asarray(self.focal_point) - np.asarray(self.position))
        )

    # -- transforms ----------------------------------------------------------

    def world_to_view(self, points: np.ndarray) -> np.ndarray:
        """World points (n, 3) → view space (x right, y up, z *forward*)."""
        right, up, forward = self.basis()
        rel = np.atleast_2d(points).astype(np.float64) - np.asarray(self.position)
        return np.stack([rel @ right, rel @ up, rel @ forward], axis=1)

    def view_to_ndc(self, view: np.ndarray) -> np.ndarray:
        """View space → NDC (x, y in [-1,1] inside frustum, z = view depth).

        Points at or behind the eye plane get NaN x/y (callers clip).
        """
        half = np.tan(np.radians(self.fov_degrees) / 2.0)
        z = view[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = view[:, 0] / (z * half)
            y = view[:, 1] / (z * half)
        bad = z <= self.near * 0.5
        x = np.where(bad, np.nan, x)
        y = np.where(bad, np.nan, y)
        return np.stack([x, y, z], axis=1)

    def project(self, points: np.ndarray, width: int, height: int) -> np.ndarray:
        """World points → ``(n, 3)`` of (pixel_x, pixel_y, view_depth).

        Pixel y grows downward.  The aspect ratio is handled by scaling
        NDC x by height/width so square pixels are preserved.
        """
        ndc = self.view_to_ndc(self.world_to_view(points))
        aspect = width / max(height, 1)
        px = (ndc[:, 0] / aspect * 0.5 + 0.5) * (width - 1)
        py = (0.5 - ndc[:, 1] * 0.5) * (height - 1)
        return np.stack([px, py, ndc[:, 2]], axis=1)

    def pixel_rays(self, width: int, height: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ray origins/directions for every pixel → ``((h*w, 3), (h*w, 3))``.

        Directions are unit length; origins are all the camera position.
        Used by the volume ray caster.
        """
        dirs = self._directions(np.arange(width), np.arange(height), width, height)
        origins = np.broadcast_to(np.asarray(self.position, dtype=np.float64), dirs.shape)
        return origins, dirs

    def pixel_ray(self, px: int, py: int, width: int, height: int) -> Tuple[np.ndarray, np.ndarray]:
        """Origin and unit direction of pixel (px, py)'s ray, each ``(3,)``:
        row ``py * width + px`` of :meth:`pixel_rays`, bit for bit, without
        the other pixels' rays."""
        dirs = self._directions(np.arange(px, px + 1), np.arange(py, py + 1), width, height)
        return np.asarray(self.position, dtype=np.float64), dirs[0]

    def _directions(self, cols: np.ndarray, rows: np.ndarray, width: int,
                    height: int) -> np.ndarray:
        """Unit directions through the centres of pixel columns *cols* ×
        rows *rows* of a ``width × height`` view, row-major, ``(n, 3)``."""
        right, up, forward = self.basis()
        half = np.tan(np.radians(self.fov_degrees) / 2.0)
        aspect = width / max(height, 1)
        xs = (cols + 0.5) / width * 2.0 - 1.0
        ys = 1.0 - (rows + 0.5) / height * 2.0
        gx, gy = np.meshgrid(xs * half * aspect, ys * half)
        dirs = (
            forward[None, None, :]
            + gx[..., None] * right[None, None, :]
            + gy[..., None] * up[None, None, :]
        ).reshape(-1, 3)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs

    # -- navigation (each returns a new Camera) --------------------------------

    def orbit(self, d_azimuth_deg: float, d_elevation_deg: float) -> "Camera":
        """Rotate the position around the focal point (mouse-drag rotate)."""
        right, up, _forward = self.basis()
        pos = np.asarray(self.position) - np.asarray(self.focal_point)

        def rotate(v: np.ndarray, axis: np.ndarray, angle_deg: float) -> np.ndarray:
            angle = np.radians(angle_deg)
            axis = _normalize(axis)
            return (
                v * np.cos(angle)
                + _cross(axis, v) * np.sin(angle)
                + axis * (axis @ v) * (1 - np.cos(angle))
            )

        pos = rotate(pos, up, d_azimuth_deg)
        pos = rotate(pos, right, d_elevation_deg)
        new_up = rotate(np.asarray(self.view_up, dtype=np.float64), right, d_elevation_deg)
        return replace(
            self,
            position=tuple(pos + np.asarray(self.focal_point)),
            view_up=tuple(new_up),
        )

    def zoom(self, factor: float) -> "Camera":
        """Dolly toward (>1) or away from (<1) the focal point."""
        if factor <= 0:
            raise RenderingError("zoom factor must be positive")
        pos = np.asarray(self.position)
        foc = np.asarray(self.focal_point)
        new_pos = foc + (pos - foc) / factor
        if np.linalg.norm(new_pos - foc) < self.near:
            return self
        return replace(self, position=tuple(new_pos))

    def pan(self, dx: float, dy: float) -> "Camera":
        """Translate position and focal point in the view plane."""
        right, up, _ = self.basis()
        shift = dx * right + dy * up
        return replace(
            self,
            position=tuple(np.asarray(self.position) + shift),
            focal_point=tuple(np.asarray(self.focal_point) + shift),
        )

    def roll(self, angle_deg: float) -> "Camera":
        """Rotate view_up around the view direction."""
        _right, up, forward = self.basis()
        angle = np.radians(angle_deg)
        new_up = up * np.cos(angle) + _cross(forward, up) * np.sin(angle)
        return replace(self, view_up=tuple(new_up))

    # -- stereo -----------------------------------------------------------------

    def stereo_pair(self, eye_separation_fraction: float = 0.03) -> Tuple["Camera", "Camera"]:
        """(left, right) cameras offset along the right axis, converging
        on the focal point — the classic toe-in stereo rig VTK provides."""
        right, _up, _forward = self.basis()
        offset = right * (self.distance * eye_separation_fraction / 2.0)
        pos = np.asarray(self.position)
        left = replace(self, position=tuple(pos - offset))
        right_cam = replace(self, position=tuple(pos + offset))
        return left, right_cam

    # -- fitting ------------------------------------------------------------------

    @staticmethod
    def fit_bounds(
        bounds: Tuple[float, float, float, float, float, float],
        direction: Tuple[float, float, float] = (1.0, -1.2, 0.8),
        fov_degrees: float = 30.0,
        margin: float = 1.25,
    ) -> "Camera":
        """A camera framing an axis-aligned bounding box from *direction*."""
        center = np.array(
            [(bounds[0] + bounds[1]) / 2, (bounds[2] + bounds[3]) / 2, (bounds[4] + bounds[5]) / 2]
        )
        radius = 0.5 * float(
            np.sqrt(
                (bounds[1] - bounds[0]) ** 2
                + (bounds[3] - bounds[2]) ** 2
                + (bounds[5] - bounds[4]) ** 2
            )
        )
        radius = max(radius, 1e-6)
        dist = radius * margin / np.tan(np.radians(fov_degrees) / 2.0)
        dirv = _normalize(np.asarray(direction, dtype=np.float64))
        position = center - dirv * dist
        return Camera(
            position=tuple(position),
            focal_point=tuple(center),
            view_up=(0.0, 0.0, 1.0) if abs(dirv[2]) < 0.9 else (0.0, 1.0, 0.0),
            fov_degrees=fov_degrees,
            near=max(dist * 1e-3, 1e-6),
            far=dist + 10 * radius,
        )

    def state(self) -> Dict[str, object]:
        """Serializable configuration (hyperwall camera sync)."""
        return {
            "position": list(self.position),
            "focal_point": list(self.focal_point),
            "view_up": list(self.view_up),
            "fov_degrees": self.fov_degrees,
            "near": self.near,
            "far": self.far,
        }

    @staticmethod
    def from_state(state: Dict[str, object]) -> "Camera":
        return Camera(
            position=tuple(state["position"]),  # type: ignore[arg-type]
            focal_point=tuple(state["focal_point"]),  # type: ignore[arg-type]
            view_up=tuple(state["view_up"]),  # type: ignore[arg-type]
            fov_degrees=float(state["fov_degrees"]),  # type: ignore[arg-type]
            near=float(state["near"]),  # type: ignore[arg-type]
            far=float(state["far"]),  # type: ignore[arg-type]
        )
