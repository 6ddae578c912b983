"""The one-step-per-iteration ray-casting loop — the reference the
blocked kernel in :mod:`repro.rendering.raycast` is compared against.

This is the loop that shipped as ``raycast_volume`` until the march was
blocked, moved here with only two edits: the live-sample test reads the
volume's per-cell bounds (it read 4³-cell tiles, so ``tile_edge`` is now
1 and the tile index *is* the cell index), and the light vector is
copied rather than normalised in the caller's array.  All rays advance
in lock-step through one Python loop over *steps*; each step samples,
shades and composites every still-active ray inside a potentially
contributing cell, then retires the rays whose transmittance fell below
the threshold or that left their clipped interval.  The skipping flag
the kernel dropped is kept, so "skipping on == skipping off" is still
checkable.  The RGBA bytes, ``raycast.samples``,
``raycast.samples.skipped``, ``raycast.rays`` and the span's ``steps``
are the contract.  Slow on purpose; never imported from ``src/``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import ndimage

from repro import obs
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.transfer_function import TransferFunction
from repro.util.errors import RenderingError

_MIN_TRANSMITTANCE = 5e-3


def _ray_box_intersection(
    origins: np.ndarray,
    directions: np.ndarray,
    bounds: Tuple[float, float, float, float, float, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Slab-method intersection → (t_enter, t_exit); misses give t_enter > t_exit."""
    t_enter = np.full(origins.shape[0], -np.inf)
    t_exit = np.full(origins.shape[0], np.inf)
    for axis in range(3):
        lo, hi = bounds[2 * axis], bounds[2 * axis + 1]
        o = origins[:, axis]
        d = directions[:, axis]
        parallel = np.abs(d) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (lo - o) / d
            t1 = (hi - o) / d
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        # parallel rays hit iff origin inside the slab
        inside = (o >= lo) & (o <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        t_enter = np.maximum(t_enter, near)
        t_exit = np.minimum(t_exit, far)
    return t_enter, t_exit


def _rows_dot(vectors: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Per-row dot product with a fixed 3-vector, strictly elementwise."""
    return (
        vectors[:, 0] * direction[0]
        + vectors[:, 1] * direction[1]
        + vectors[:, 2] * direction[2]
    )


def _skip_setup(
    volume: ImageData,
    transfer: TransferFunction,
    name: str,
):
    """Empty-space-skipping state: (live-cell flat mask, cell shape, world box).

    Returns ``None`` when skipping is unavailable (degenerate volume),
    and ``(None, None, None)`` when *nothing* can contribute (opacity
    support empty, or every cell blocked).
    """
    if min(volume.dimensions) < 2:
        return None
    support = transfer.opacity_support()
    pyramid = volume.min_max_pyramid(name)
    if support is None:
        return (None, None, None)
    blocked = pyramid.blocked_outside(support[0], support[1])
    cell_bounds = pyramid.active_cell_bounds(~blocked)
    if cell_bounds is None:
        return (None, None, None)
    i0, i1, j0, j1, k0, k1 = cell_bounds
    lo_w = volume.index_to_world(np.array([i0, j0, k0], dtype=np.float64))
    hi_w = volume.index_to_world(np.array([i1, j1, k1], dtype=np.float64))
    box = (
        float(lo_w[0]), float(hi_w[0]),
        float(lo_w[1]), float(hi_w[1]),
        float(lo_w[2]), float(hi_w[2]),
    )
    return (~blocked).ravel(), blocked.shape, box


def raycast_volume(
    volume: ImageData,
    transfer: TransferFunction,
    camera: Camera,
    width: int,
    height: int,
    step_size: Optional[float] = None,
    array_name: Optional[str] = None,
    depth_limit: Optional[np.ndarray] = None,
    lighting: bool = True,
    light_direction: Tuple[float, float, float] = (0.4, -0.5, 0.8),
    empty_space_skipping: bool = True,
) -> np.ndarray:
    """Render *volume* → an ``(height, width, 4)`` float32 RGBA image."""
    if width < 1 or height < 1:
        raise RenderingError("bad image size")
    name = array_name or volume.active_scalars_name
    step = float(step_size) if step_size else float(min(volume.spacing))
    if step <= 0:
        raise RenderingError("step_size must be positive")

    with obs.span(
        "raycast.render", rays=int(width * height), width=int(width), height=int(height)
    ) as _span:
        origins, dirs = camera.pixel_rays(width, height)
        n_rays = origins.shape[0]
        t_enter, t_exit = _ray_box_intersection(origins, dirs, volume.bounds())
        t_enter = np.maximum(t_enter, camera.near)

        if depth_limit is not None:
            if depth_limit.shape != (height, width):
                raise RenderingError("depth_limit shape mismatch")
            # convert view-space depth (distance along forward axis) to ray t
            _right, _up, forward = camera.basis()
            cos = _rows_dot(dirs, forward)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_geom = depth_limit.reshape(-1) / np.maximum(cos, 1e-9)
            t_exit = np.minimum(t_exit, np.where(np.isfinite(t_geom), t_geom, np.inf))

        color = np.zeros((n_rays, 3), dtype=np.float64)
        transmittance = np.ones(n_rays, dtype=np.float64)

        # -- empty-space skipping setup --------------------------------------
        live_flat: Optional[np.ndarray] = None
        tile_shape: Optional[Tuple[int, int, int]] = None
        t_start, t_limit = t_enter, t_exit
        skip = _skip_setup(volume, transfer, name) if empty_space_skipping else None
        nothing_contributes = False
        if skip is not None:
            live_flat, tile_shape, occupied_box = skip
            if live_flat is None:
                nothing_contributes = True
            else:
                tb_enter, tb_exit = _ray_box_intersection(origins, dirs, occupied_box)
                # clip sampling to the occupied box, preserving the exact
                # t_enter + k*step sample positions; one step of slack on
                # each side absorbs the intersection's floating-point error
                with np.errstate(invalid="ignore"):
                    lead = np.maximum(np.floor((tb_enter - t_enter) / step) - 1.0, 0.0)
                t_start = t_enter + lead * step
                t_limit = np.minimum(t_exit, tb_exit + 2.0 * step)

        hit = (t_enter < t_exit) & (t_start < t_limit)
        if nothing_contributes:
            hit = np.zeros(n_rays, dtype=bool)
        t_current = np.where(hit, t_start, np.inf)
        active = np.nonzero(hit)[0]

        gradient = volume.gradient(name) if lighting else None
        light = np.array(light_direction, dtype=np.float64)
        light /= max(np.linalg.norm(light), 1e-30)

        # opacity correction reference: transfer functions are defined per
        # unit step of the smallest spacing
        reference_step = float(min(volume.spacing))
        if tile_shape is not None:
            cell_hi = np.array(
                [max(d - 2, 0) for d in volume.dimensions], dtype=np.float64
            )
            tile_edge = 1

        # instrumentation state is accumulated in plain locals so the
        # per-step cost with recording off is a single branch
        _obs_on = obs.enabled()
        _samples = 0
        _skipped = 0
        _steps = 0

        max_steps = int(np.ceil(volume.diagonal() / step)) + 2
        for _ in range(max_steps):
            if active.size == 0:
                break
            t = t_current[active]
            pts = origins[active] + dirs[active] * t[:, None]
            if live_flat is None:
                live = None
                sub = active
                spts = pts
            else:
                idxf = volume.world_to_index(pts)
                cell = np.clip(np.floor(idxf), 0.0, cell_hi).astype(np.intp)
                tx, ty, tz = (cell // tile_edge).T
                flat = (tx * tile_shape[1] + ty) * tile_shape[2] + tz
                live = live_flat[flat]
                sub = active[live]
                spts = pts[live]
            if _obs_on:
                _samples += int(sub.size)
                _skipped += int(active.size - sub.size)
                _steps += 1
            if sub.size:
                samples = volume.sample(spts, name=name)
                rgb, alpha = transfer.evaluate(samples)
                # correct opacity for the actual step length
                alpha = 1.0 - np.power(
                    1.0 - np.clip(alpha, 0.0, 0.999), step / reference_step
                )
                if gradient is not None:
                    idx = (idxf[live] if live is not None
                           else volume.world_to_index(spts)).T
                    g = np.empty((spts.shape[0], 3), dtype=np.float64)
                    for c in range(3):
                        g[:, c] = ndimage.map_coordinates(
                            gradient[..., c], idx, order=1, mode="nearest",
                            prefilter=False,
                        )
                    glen = np.linalg.norm(g, axis=1)
                    shading = np.where(
                        glen > 1e-12,
                        0.4 + 0.6 * np.abs(
                            _rows_dot(g / np.maximum(glen, 1e-12)[:, None], light)
                        ),
                        1.0,
                    )
                    rgb = rgb * shading[:, None]
                tr = transmittance[sub]
                color[sub] += (tr * alpha)[:, None] * rgb
                transmittance[sub] = tr * (1.0 - alpha)
            t_current[active] = t + step
            keep = (
                (transmittance[active] > _MIN_TRANSMITTANCE)
                & (t_current[active] < t_limit[active])
            )
            active = active[keep]

        if _obs_on:
            obs.counter("raycast.samples", _samples)
            obs.counter("raycast.samples.skipped", _skipped)
            obs.counter("raycast.rays", int(n_rays))
            _span.set(steps=_steps, samples=_samples, skipped=_skipped)

        alpha_out = 1.0 - transmittance
        rgba = np.concatenate([color, alpha_out[:, None]], axis=1)
        return rgba.reshape(height, width, 4).astype(np.float32)
