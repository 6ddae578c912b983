"""The per-primitive rasterizer loops — the reference the batched kernels
in :mod:`repro.rendering.rasterizer` are compared against.

These are the functions that shipped in ``src/`` until the rasterizer
was batched, moved here verbatim: one ``write_pixels`` call per triangle
and per polyline segment, in draw order.  Beside them are the smooth
point normals they shaded with (``np.cross`` and three ``np.add.at``
passes) and the loop ``Renderer.render`` ran before it drew runs of
like actors: one ``rasterize`` per visible actor with points.  Their framebuffer bytes *and*
their returned count are the contract, so the depth-tested write they
were built on is kept beside them and the oracle shares no code with
what it checks.  Slow on purpose; never imported from ``src/``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData
from repro.rendering.image_data import ImageData
from repro.rendering.rasterizer import shade_colors


def make_volume(n: int) -> ImageData:
    """Gaussian-blob scalar + swirling vector field on one grid (the
    differential suite's sweep meshes are its 0.5 isosurface)."""
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("blob", np.exp(-3 * (X**2 + Y**2 + Z**2)))
    vec = np.stack([-Y, X, 0.2 * np.ones_like(Z)], axis=-1)
    vol.add_array("swirl", vec, set_active=False)
    return vol


def write_pixels(
    fb: Framebuffer,
    rows: np.ndarray,
    cols: np.ndarray,
    depths: np.ndarray,
    colors: np.ndarray,
) -> int:
    """Depth-tested opaque write of scattered pixels; returns count drawn.

    Duplicate pixels within one call are resolved nearest-first.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    depths = np.asarray(depths, dtype=np.float32)
    inside = (rows >= 0) & (rows < fb.height) & (cols >= 0) & (cols < fb.width)
    rows, cols, depths, colors = rows[inside], cols[inside], depths[inside], colors[inside]
    if rows.size == 0:
        return 0
    # sort far-to-near so the final (nearest) write wins per pixel
    order = np.argsort(-depths, kind="stable")
    rows, cols, depths, colors = rows[order], cols[order], depths[order], colors[order]
    passed = depths < fb.depth[rows, cols]
    rows, cols, depths, colors = rows[passed], cols[passed], depths[passed], colors[passed]
    fb.color[rows, cols] = colors.astype(np.float32)
    fb.depth[rows, cols] = depths
    return int(rows.size)


def rasterize(
    poly: PolyData,
    camera: Camera,
    framebuffer: Framebuffer,
    light_direction: Optional[np.ndarray] = None,
    flat_color: tuple = (0.8, 0.8, 0.8),
    line_color: Optional[tuple] = None,
    point_size: int = 1,
) -> int:
    """The seed ``rasterize`` driver over the two loops below."""
    if poly.n_points == 0:
        return 0
    width, height = framebuffer.width, framebuffer.height
    projected = camera.project(poly.points, width, height)  # (n, 3): px, py, depth

    if poly.colors is not None:
        base = poly.colors.astype(np.float64)
    else:
        base = np.tile(np.asarray(flat_color, dtype=np.float64), (poly.n_points, 1))
    if light_direction is not None and poly.n_triangles:
        shaded = shade_colors(base, reference_point_normals(poly), light_direction)
    else:
        shaded = np.clip(base, 0.0, 1.0).astype(np.float32)

    written = 0
    if poly.n_triangles:
        written += _rasterize_triangles(poly.triangles, projected, shaded, framebuffer)
    for line in poly.lines:
        if line.size >= 2:
            color = (
                np.asarray(line_color, dtype=np.float32)
                if line_color is not None
                else None
            )
            written += _rasterize_polyline(
                line, projected, shaded, color, framebuffer, point_size
            )
    return written


def reference_point_normals(poly: PolyData) -> np.ndarray:
    """Area-weighted per-point normals, ``(n, 3)``, as the seed formed them."""
    tri_normals = np.cross(
        poly.points[poly.triangles[:, 1]] - poly.points[poly.triangles[:, 0]],
        poly.points[poly.triangles[:, 2]] - poly.points[poly.triangles[:, 0]],
    )  # unnormalized = area-weighted
    normals = np.zeros_like(poly.points)
    for corner in range(3):
        np.add.at(normals, poly.triangles[:, corner], tri_normals)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return normals / np.maximum(lengths, 1e-30)


def render_actors(
    actors: Sequence,
    camera: Camera,
    framebuffer: Framebuffer,
    light_direction: np.ndarray,
) -> int:
    """The per-actor loop: each visible actor with points drawn on its own,
    in order, with its own options; returns the pixels written."""
    written = 0
    for actor in actors:
        if not actor.visible or actor.poly.n_points == 0:
            continue
        written += rasterize(
            actor.poly,
            camera,
            framebuffer,
            light_direction=light_direction if actor.lighting else None,
            flat_color=actor.color,
            line_color=actor.line_color,
            point_size=actor.point_size,
        )
    return written


def _rasterize_triangles(
    triangles: np.ndarray,
    projected: np.ndarray,
    colors: np.ndarray,
    fb: Framebuffer,
) -> int:
    """Barycentric bounding-box fill of each triangle."""
    width, height = fb.width, fb.height
    pts2 = projected[:, :2]
    depth = projected[:, 2]
    written = 0

    tri_pts = pts2[triangles]  # (n_tri, 3, 2)
    tri_depth = depth[triangles]  # (n_tri, 3)
    finite = np.isfinite(tri_pts).all(axis=(1, 2)) & (tri_depth > 0).all(axis=1)
    # cull triangles fully outside the viewport
    xs, ys = tri_pts[..., 0], tri_pts[..., 1]
    onscreen = (
        (xs.max(axis=1) >= 0) & (xs.min(axis=1) <= width - 1)
        & (ys.max(axis=1) >= 0) & (ys.min(axis=1) <= height - 1)
    )
    keep = np.nonzero(finite & onscreen)[0]

    for ti in keep:
        ia, ib, ic = triangles[ti]
        pa, pb, pc = pts2[ia], pts2[ib], pts2[ic]
        # signed double area; degenerate triangles are skipped
        area = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pc[0] - pa[0]) * (pb[1] - pa[1])
        if abs(area) < 1e-12:
            continue
        x0 = max(int(np.floor(min(pa[0], pb[0], pc[0]))), 0)
        x1 = min(int(np.ceil(max(pa[0], pb[0], pc[0]))), width - 1)
        y0 = max(int(np.floor(min(pa[1], pb[1], pc[1]))), 0)
        y1 = min(int(np.ceil(max(pa[1], pb[1], pc[1]))), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        gx = gx.reshape(-1).astype(np.float64)
        gy = gy.reshape(-1).astype(np.float64)
        # barycentric coordinates of every bbox pixel at once
        w0 = ((pb[0] - gx) * (pc[1] - gy) - (pc[0] - gx) * (pb[1] - gy)) / area
        w1 = ((pc[0] - gx) * (pa[1] - gy) - (pa[0] - gx) * (pc[1] - gy)) / area
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
        if not inside.any():
            continue
        w0, w1, w2 = w0[inside], w1[inside], w2[inside]
        px = gx[inside].astype(np.intp)
        py = gy[inside].astype(np.intp)
        z = w0 * depth[ia] + w1 * depth[ib] + w2 * depth[ic]
        rgb = (
            w0[:, None] * colors[ia]
            + w1[:, None] * colors[ib]
            + w2[:, None] * colors[ic]
        )
        written += write_pixels(fb, py, px, z, rgb)
    return written


def _rasterize_polyline(
    line: np.ndarray,
    projected: np.ndarray,
    colors: np.ndarray,
    flat: Optional[np.ndarray],
    fb: Framebuffer,
    point_size: int,
) -> int:
    """DDA sampling of each segment; thickness via a square brush."""
    written = 0
    for a, b in zip(line[:-1], line[1:]):
        pa, pb = projected[a], projected[b]
        if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
            continue
        if pa[2] <= 0 or pb[2] <= 0:
            continue
        length = float(max(abs(pb[0] - pa[0]), abs(pb[1] - pa[1])))
        n = max(int(np.ceil(length)) + 1, 2)
        t = np.linspace(0.0, 1.0, n)
        xs = pa[0] + (pb[0] - pa[0]) * t
        ys = pa[1] + (pb[1] - pa[1]) * t
        zs = pa[2] + (pb[2] - pa[2]) * t - 1e-4  # nudge lines in front of faces
        if flat is not None:
            rgb = np.tile(flat, (n, 1))
        else:
            rgb = colors[a][None, :] * (1 - t)[:, None] + colors[b][None, :] * t[:, None]
        if point_size > 1:
            offsets = np.arange(point_size) - point_size // 2
            ox, oy = np.meshgrid(offsets, offsets)
            xs = (xs[:, None] + ox.reshape(1, -1)).reshape(-1)
            ys = (ys[:, None] + oy.reshape(1, -1)).reshape(-1)
            zs = np.repeat(zs, ox.size)
            rgb = np.repeat(rgb, ox.size, axis=0)
        rows = np.round(ys).astype(np.intp)
        cols = np.round(xs).astype(np.intp)
        written += write_pixels(fb, rows, cols, zs, rgb)
    return written
