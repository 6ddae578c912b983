"""Streamline integration through vector fields.

The Vector slicer plot displays "a vector glyph or streamline plot" on
a slice plane.  Streamlines are integrated with classical RK4 through
the trilinearly-interpolated vector field, vectorized across all seeds
simultaneously; a seed retires when it leaves the volume, stalls
(speed below threshold) or reaches the step limit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.rendering.geometry import PolyData
from repro.rendering.image_data import ImageData
from repro.util.errors import RenderingError


def integrate_streamlines(
    volume: ImageData,
    vector_name: str,
    seeds: np.ndarray,
    step_size: Optional[float] = None,
    max_steps: int = 200,
    min_speed: float = 1e-6,
    bidirectional: bool = False,
) -> List[np.ndarray]:
    """Integrate streamlines from *seeds* → list of ``(n_i, 3)`` polylines.

    Parameters
    ----------
    step_size:
        World-space integration step (default: half the smallest grid
        spacing).  The field is normalized to unit speed for stepping,
        so lines advance uniformly regardless of field magnitude.
    bidirectional:
        Also integrate upstream and join the two halves.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    if seeds.shape[1] != 3:
        raise RenderingError("seeds must be (n, 3)")
    if max_steps < 1:
        raise RenderingError("max_steps must be >= 1")
    h = float(step_size) if step_size else 0.5 * float(min(volume.spacing))

    def field(points: np.ndarray) -> np.ndarray:
        """Unit-speed direction field (zero outside / at stalls)."""
        vec = volume.sample_vector(points, vector_name)
        speed = np.linalg.norm(vec, axis=1, keepdims=True)
        return np.where(speed > min_speed, vec / np.maximum(speed, 1e-30), 0.0)

    bounds = volume.bounds()

    def inside(points: np.ndarray) -> np.ndarray:
        ok = np.ones(points.shape[0], dtype=bool)
        for axis in range(3):
            ok &= (points[:, axis] >= bounds[2 * axis]) & (points[:, axis] <= bounds[2 * axis + 1])
        return ok

    _obs_on = obs.enabled()
    n_seeds = seeds.shape[0]

    def march(direction: float):
        """Advance every live seed in lock step → ``(buffer, counts)``.

        Paths are recorded into one preallocated
        ``(n_seeds, max_steps + 1, 3)`` buffer with per-seed point
        counts — a vectorized scatter per step instead of a Python loop
        over seeds.  ``buffer[i, :counts[i]]`` is seed *i*'s polyline
        (the seed itself first).
        """
        pts = seeds.copy()
        alive = inside(pts)
        buf = np.empty((n_seeds, max_steps + 1, 3), dtype=np.float64)
        buf[:, 0] = seeds
        counts = np.ones(n_seeds, dtype=np.intp)
        steps = 0
        advanced = 0
        for _ in range(max_steps):
            if not alive.any():
                break
            if _obs_on:
                steps += 1
                advanced += int(alive.sum())
            idx = np.nonzero(alive)[0]
            p = pts[idx]
            k1 = field(p) * direction
            k2 = field(p + 0.5 * h * k1) * direction
            k3 = field(p + 0.5 * h * k2) * direction
            k4 = field(p + h * k3) * direction
            step_vec = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            moved = np.linalg.norm(step_vec, axis=1) > 1e-12
            new_p = p + step_vec
            ok = inside(new_p) & moved
            good = idx[ok]
            pts[good] = new_p[ok]
            buf[good, counts[good]] = new_p[ok]
            counts[good] += 1
            alive[idx[~ok]] = False
        if _obs_on:
            obs.counter("streamline.rk4_steps", steps)
            obs.counter("streamline.seed_advances", advanced)
        return buf, counts

    with obs.span(
        "streamline.integrate",
        seeds=int(seeds.shape[0]),
        bidirectional=bool(bidirectional),
    ) as _span:
        buf_f, counts_f = march(+1.0)
        lines = []
        if not bidirectional:
            for i in range(n_seeds):
                if counts_f[i] >= 2:
                    lines.append(buf_f[i, : counts_f[i]].copy())
        else:
            buf_b, counts_b = march(-1.0)
            for i in range(n_seeds):
                # upstream half reversed (seed point dropped) + downstream
                if counts_b[i] - 1 + counts_f[i] >= 2:
                    lines.append(
                        np.concatenate(
                            [buf_b[i, 1 : counts_b[i]][::-1], buf_f[i, : counts_f[i]]]
                        )
                    )
        if _obs_on:
            n_points = int(sum(line.shape[0] for line in lines))
            obs.counter("streamline.points", n_points)
            _span.set(lines=len(lines), points=n_points)
    return lines


def streamlines_to_polydata(
    lines: List[np.ndarray],
    volume: Optional[ImageData] = None,
    vector_name: Optional[str] = None,
) -> PolyData:
    """Pack streamline polylines into one PolyData.

    When *volume*/*vector_name* are given, per-point scalars are set to
    the local field speed (for colormapping lines by wind speed).
    """
    lines = [np.atleast_2d(l) for l in lines if len(l) >= 2]
    if not lines:
        return PolyData(np.zeros((0, 3)))
    points = np.concatenate(lines)
    offsets = np.cumsum([0] + [len(l) for l in lines[:-1]])
    connectivity = [np.arange(len(l)) + off for l, off in zip(lines, offsets)]
    scalars = None
    if volume is not None and vector_name is not None:
        vec = volume.sample_vector(points, vector_name)
        scalars = np.linalg.norm(vec, axis=1)
    return PolyData(points, lines=connectivity, scalars=scalars)


def plane_seed_grid(
    volume: ImageData,
    axis: int,
    world_coord: float,
    n_u: int = 12,
    n_v: int = 12,
    margin: float = 0.05,
) -> np.ndarray:
    """A regular grid of seed points on an axis-aligned plane."""
    if axis not in (0, 1, 2):
        raise RenderingError("axis must be 0, 1 or 2")
    bounds = volume.bounds()
    other = [a for a in range(3) if a != axis]
    seeds = np.empty((n_u * n_v, 3), dtype=np.float64)
    lo_u, hi_u = bounds[2 * other[0]], bounds[2 * other[0] + 1]
    lo_v, hi_v = bounds[2 * other[1]], bounds[2 * other[1] + 1]
    span_u, span_v = hi_u - lo_u, hi_v - lo_v
    us = np.linspace(lo_u + margin * span_u, hi_u - margin * span_u, n_u)
    vs = np.linspace(lo_v + margin * span_v, hi_v - margin * span_v, n_v)
    gu, gv = np.meshgrid(us, vs, indexing="ij")
    seeds[:, axis] = world_coord
    seeds[:, other[0]] = gu.reshape(-1)
    seeds[:, other[1]] = gv.reshape(-1)
    return seeds
