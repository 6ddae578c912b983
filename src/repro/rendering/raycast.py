"""Volume rendering by front-to-back ray casting.

The Volume render plot "maps variable values within a data volume to
opacity and color".  This is the classic emission–absorption ray
caster: per-pixel rays are intersected with the volume's bounding box,
the scalar field is trilinearly sampled at fixed world-space steps, the
transfer function converts samples to (color, opacity), and samples
composite front-to-back with early termination.

Vectorization strategy (per the session guides): all rays advance in
lock-step through one Python loop over *steps*; each step samples every
still-active ray with a single ``map_coordinates`` call.  Rays whose
transmittance drops below a threshold, or that pass behind already-
rasterized opaque geometry (the framebuffer depth), are retired from
the active set.

Empty-space skipping: a cached per-tile min/max pyramid
(:mod:`repro.rendering.accel`) marks tiles whose value bounds fall
entirely outside the opacity transfer function's support — every
sample in such a tile has opacity *exactly* zero, so it is never
evaluated.  Rays are clipped to the occupied region's bounding box
(skipping leading/trailing all-blocked runs without changing the
fixed ``t_enter + k*step`` sample positions), and inside the box each
step only samples rays currently inside a potentially-contributing
tile.  Skipped samples would have contributed nothing byte-for-byte,
so the output is bitwise identical with skipping on or off.

Every per-ray quantity is computed strictly elementwise (no batched
BLAS reductions whose rounding could depend on cohort size), so a
pixel's value does not depend on how many other rays share its frame.
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
    """Per-row dot product with a fixed 3-vector, strictly elementwise.

    Equivalent to ``vectors @ direction`` but with a fixed evaluation
    order per row, so the result for any row is independent of how many
    other rows are in the batch (the golden images pin these bytes).
    """
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
    """Empty-space-skipping state: (live-tile flat mask, tile shape, world box).

    Returns ``None`` when skipping is unavailable (degenerate volume),
    and ``(None, None, None)`` when *nothing* can contribute (opacity
    support empty, or every tile blocked).
    """
    if min(volume.dimensions) < 2:
        return None
    support = transfer.opacity_support()
    pyramid = volume.min_max_pyramid(name)
    level = pyramid.levels[0]
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
    return (~blocked).ravel(), level.shape, box


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
    """Render *volume* → an ``(height, width, 4)`` float32 RGBA image.

    Parameters
    ----------
    step_size:
        World-space sampling distance; defaults to the smallest grid
        spacing (≈ Nyquist for trilinear sampling).
    depth_limit:
        Optional ``(height, width)`` view-depth buffer from rasterized
        geometry; rays stop there so opaque geometry occludes volume.
    lighting:
        Modulate sample colors by gradient-based Lambertian shading.
    empty_space_skipping:
        Use the min/max tile pyramid to avoid evaluating samples whose
        opacity is provably zero.  Bitwise identical on or off.
    """
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
        light = np.asarray(light_direction, dtype=np.float64)
        light /= max(np.linalg.norm(light), 1e-30)

        # opacity correction reference: transfer functions are defined per
        # unit step of the smallest spacing
        reference_step = float(min(volume.spacing))
        if tile_shape is not None:
            cell_hi = np.array(
                [max(d - 2, 0) for d in volume.dimensions], dtype=np.float64
            )
            tile_edge = volume.min_max_pyramid(name).tile

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
