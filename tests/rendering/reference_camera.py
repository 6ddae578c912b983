"""The numpy camera arithmetic — the reference :mod:`repro.rendering.camera`
is compared against.

These are the formulations that shipped in ``src/`` until the camera's
3-vector cross products and its "position coincides with the focal
point" check dropped numpy's dispatch, moved here verbatim: ``np.cross``
and ``np.allclose`` on every call.  Each function takes a
:class:`~repro.rendering.camera.Camera` and returns what the method of
the same name returned; a returned camera is built with
``dataclasses.replace``, so it runs the camera's own ``__post_init__``.
Never imported from ``src/``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

import numpy as np

from repro.rendering.camera import Camera, _normalize


def cross(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # the scalar form is silent
        return np.cross(a, b)


def coincide(a: Sequence[float], b: Sequence[float]) -> bool:
    return bool(np.allclose(a, b))


def basis(camera: Camera) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = np.asarray(camera.position, dtype=np.float64)
    foc = np.asarray(camera.focal_point, dtype=np.float64)
    forward = _normalize(foc - pos)
    up_hint = np.asarray(camera.view_up, dtype=np.float64)
    right = np.cross(forward, up_hint)
    if np.linalg.norm(right) < 1e-9:  # up parallel to view direction
        up_hint = np.array([0.0, 0.0, 1.0]) if abs(forward[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up_hint)
    right = _normalize(right)
    up = _normalize(np.cross(right, forward))
    return right, up, forward


def orbit(camera: Camera, d_azimuth_deg: float, d_elevation_deg: float) -> Camera:
    right, up, _forward = basis(camera)
    pos = np.asarray(camera.position) - np.asarray(camera.focal_point)

    def rotate(v: np.ndarray, axis: np.ndarray, angle_deg: float) -> np.ndarray:
        angle = np.radians(angle_deg)
        axis = _normalize(axis)
        return (
            v * np.cos(angle)
            + np.cross(axis, v) * np.sin(angle)
            + axis * (axis @ v) * (1 - np.cos(angle))
        )

    pos = rotate(pos, up, d_azimuth_deg)
    pos = rotate(pos, right, d_elevation_deg)
    new_up = rotate(np.asarray(camera.view_up, dtype=np.float64), right, d_elevation_deg)
    return replace(
        camera,
        position=tuple(pos + np.asarray(camera.focal_point)),
        view_up=tuple(new_up),
    )


def pan(camera: Camera, dx: float, dy: float) -> Camera:
    right, up, _ = basis(camera)
    shift = dx * right + dy * up
    return replace(
        camera,
        position=tuple(np.asarray(camera.position) + shift),
        focal_point=tuple(np.asarray(camera.focal_point) + shift),
    )


def roll(camera: Camera, angle_deg: float) -> Camera:
    _right, up, forward = basis(camera)
    angle = np.radians(angle_deg)
    new_up = up * np.cos(angle) + np.cross(forward, up) * np.sin(angle)
    return replace(camera, view_up=tuple(new_up))


def stereo_pair(camera: Camera, eye_separation_fraction: float = 0.03) -> Tuple[Camera, Camera]:
    right, _up, _forward = basis(camera)
    offset = right * (camera.distance * eye_separation_fraction / 2.0)
    pos = np.asarray(camera.position)
    left = replace(camera, position=tuple(pos - offset))
    right_cam = replace(camera, position=tuple(pos + offset))
    return left, right_cam
