"""Volume rendering by front-to-back ray casting.

The Volume render plot "maps variable values within a data volume to
opacity and color".  This is the classic emission–absorption ray
caster: per-pixel rays are intersected with the volume's bounding box,
the scalar field is trilinearly sampled at fixed world-space steps, the
transfer function converts samples to (color, opacity), and samples
composite front-to-back with early termination.

Only samples that can contribute are evaluated, and the march advances
a block of steps per round of numpy calls:

* **Empty-space skipping, per cell.**  The volume's cached per-cell
  min/max bounds (:mod:`repro.rendering.accel`) mark cells whose corner
  values fall entirely outside the opacity transfer function's support
  — every sample in such a cell has opacity *exactly* zero.  Rays are
  clipped to the occupied cells' bounding box (skipping leading and
  trailing all-blocked runs without changing the fixed sample
  positions), and inside it only samples in a live cell are sampled.
* **Colour and shading only for visible samples.**  Opacity is
  evaluated first, on every live sample; the colour map, gradient
  lighting and compositing run only on samples with opacity > 0: a
  zero-opacity sample adds ``(T·0)·rgb = +0`` and multiplies
  transmittance by exactly 1.  The one exception is a NaN shade, which
  needs a ±inf gradient; for such a volume every live sample is
  coloured, shaded and composited.  The shade interpolates the
  volume's gradient one contiguous component at a time into ``(3, n)``
  columns and forms its length and its dot with the light in the
  operation order of ``np.linalg.norm`` and :func:`_rows_dot`.
* **Per-volume setup in a few passes.**  The cell bounds, the gradient
  and the blocked-cell mask are built once per volume (the mask once
  per opacity support) and kept on it, each in a handful of
  contiguous numpy passes (:mod:`repro.rendering.accel`,
  :meth:`ImageData.gradient`), so a time step's fixed cost is small
  beside its samples.
* **Per-view setup, kept.**  What the camera, the frame size and the
  volume's bounds alone decide — the rays that enter the volume box
  after the ``camera.near`` clip, their directions as ``(3, m)``
  columns, their entry and exit ``t`` and their depth cosines
  (:func:`view_rays`) — is built once per view and kept by the caller
  in a :class:`~repro.util.kept.Kept` handed in as *rays* (the Volume
  plot keeps one), so a time step sets up no rays.  The depth clip
  against this frame's depth buffer and the clip to this volume's
  occupied box stay per frame, over the ``m`` rays in the box only, and
  the march adds the one camera position rather than a per-ray origin.
* **K steps per block.**  The active rays advance
  ``K = _SAMPLE_BUDGET // rays`` steps at a time (at least 1, at most
  ``_MAX_BLOCK_STEPS``).  A block lays out every ray's K sample
  positions by repeated addition (``t, t + step, (t + step) + step,
  …`` — never ``t + k·step``, which rounds differently), tests, samples
  and shades them in one call each, and composites along the step axis
  with a running product of ``1 − α`` and a running sum of
  ``(T·α)·rgb``.  Block arrays are step-major, so each running
  product / sum is one vectorised multiply / add per step over every
  ray of the block, in step order: every ray sees the same float
  operations in the same order as a march of one step per iteration.
  (``np.multiply.accumulate`` / ``np.add.accumulate`` give the same
  bytes but run one inner loop per ray along the short step axis: 5–70×
  slower with 1k–300k rays in a block.)  A ray's result is read after
  the step at which it would retire (transmittance at or below
  ``_MIN_TRANSMITTANCE``, or past the end of its interval); a prefix
  never depends on later steps, so the samples past it are wasted work,
  not error.  Rays are compacted between blocks.

Every elimination is exact: the output is byte-identical to the march
of one step per iteration — all active rays in lock-step through one
Python loop over steps — kept as the oracle in
``tests/rendering/reference_raycast.py``, and so are the sample,
skipped-sample and step counts.  Every per-ray quantity is computed
strictly elementwise (no batched BLAS reductions whose rounding could
depend on cohort size), so a pixel's value does not depend on how many
other rays share its frame or its block.
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
from repro.util.kept import Kept

_MIN_TRANSMITTANCE = 5e-3

#: samples one block of the march may lay out: bounds rays × K the way
#: the rasterizer's ``_FRAGMENT_BUDGET`` bounds fragments
_SAMPLE_BUDGET = 1 << 14

#: most steps one block marches — past early termination a longer block
#: lays out samples no ray reaches
_MAX_BLOCK_STEPS = 16


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
        if parallel.any():
            inside = (o >= lo) & (o <= hi)
            near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
            far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        t_enter = np.maximum(t_enter, near)
        t_exit = np.minimum(t_exit, far)
    return t_enter, t_exit


def view_rays(
    camera: Camera,
    width: int,
    height: int,
    bounds: Tuple[float, float, float, float, float, float],
) -> Tuple[np.ndarray, ...]:
    """The view half of the ray setup: what a frame's camera, size and
    volume bounds alone decide.

    Returns ``(position, ids, directions, t_enter, t_exit, cos)``: the
    camera position ``(3,)``; the pixel ids of the rays that enter the
    *bounds* box after the ``camera.near`` clip; their directions as
    contiguous ``(3, m)`` columns; their entry (clipped) and exit ``t``;
    and their direction cosine along the camera's forward axis, at least
    ``1e-9`` (the divisor that turns a view-space depth into a ray ``t``).
    """
    origins, all_dirs = camera.pixel_rays(width, height)
    t_enter, t_exit = _ray_box_intersection(origins, all_dirs, bounds)
    t_enter = np.maximum(t_enter, camera.near)
    ids = np.flatnonzero(t_enter < t_exit)
    dirs = np.ascontiguousarray(all_dirs[ids].T)
    _right, _up, forward = camera.basis()
    cos = np.maximum(_rows_dot(dirs.T, forward), 1e-9)
    position = np.array(camera.position, dtype=np.float64)
    return position, ids, dirs, t_enter[ids], t_exit[ids], cos


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
    """Empty-space-skipping state: (live-cell flat mask, cell shape, world box).

    Returns ``None`` when skipping is unavailable (degenerate volume),
    and ``(None, None, None)`` when *nothing* can contribute (opacity
    support empty, or every cell blocked).
    """
    if min(volume.dimensions) < 2:
        return None
    support = transfer.opacity_support()
    if support is None:
        return (None, None, None)
    pyramid = volume.min_max_pyramid(name)
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


def _shading(gradient: np.ndarray, idx: np.ndarray, light: np.ndarray) -> np.ndarray:
    """Lambertian shade factor at index coordinates ``(3, n)``.

    The gradient is interpolated into one contiguous column per
    component; its length is ``(g0·g0 + g1·g1) + g2·g2`` under the
    root, ``np.linalg.norm(g, axis=1)``'s own order, and the dot with
    the light is :func:`_rows_dot`'s.
    """
    g = np.empty((3, idx.shape[1]), dtype=np.float64)
    for c in range(3):
        ndimage.map_coordinates(
            gradient[..., c], idx, order=1, mode="nearest", prefilter=False,
            output=g[c],
        )
    glen = np.sqrt((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2])
    safe = np.maximum(glen, 1e-12)
    dot = (g[0] / safe * light[0] + g[1] / safe * light[1]) + g[2] / safe * light[2]
    return np.where(glen > 1e-12, 0.4 + 0.6 * np.abs(dot), 1.0)


def _composite(
    pos: np.ndarray,
    alpha: np.ndarray,
    rgb: np.ndarray,
    k: int,
    trans: np.ndarray,
    col: np.ndarray,
    ok: np.ndarray,
) -> None:
    """Composite one block's visible samples into its rays, in place.

    *pos* are the samples' step-major flat positions (step j of ray r is
    ``j * n + r``), ascending.  Only rays with a visible sample get a
    column: row 0 holds the ray's transmittance / color before the
    block, row j + 1 the factor ``1 − α`` / the term ``(T·α)·rgb`` of its
    step j (1 and 0 where the step is invisible), and one multiply / add
    per step runs them in step order — the single-step loop's own
    operations.  *ok* (per ray, after how many steps it still marches
    on, by its interval) is lowered where transmittance falls to the
    threshold, and each ray's transmittance and color are read after its
    last step.
    """
    n = ok.size
    step_of, ray = np.divmod(pos, n)
    has = np.zeros(n, dtype=bool)
    has[ray] = True
    rows = np.flatnonzero(has)
    width = rows.size
    before = step_of * width + (np.cumsum(has) - 1)[ray]
    tr = np.ones((k + 1, width))
    tr[0] = trans[rows]
    tr.reshape(-1)[before + width] = 1.0 - alpha
    for j in range(k):
        np.multiply(tr[j], tr[j + 1], out=tr[j + 1])
    c = np.zeros((k + 1, width, 3))
    col.take(rows, axis=0, out=c[0])
    c.reshape(-1, 3)[before + width] = (tr.reshape(-1)[before] * alpha)[:, None] * rgb
    for j in range(k):
        np.add(c[j], c[j + 1], out=c[j + 1])
    ok[rows] = np.minimum(ok[rows], np.count_nonzero(tr[1:] > _MIN_TRANSMITTANCE, axis=0))
    last = np.minimum(ok[rows] + 1, k) * width + np.arange(width)
    trans[rows] = tr.reshape(-1)[last]
    col[rows] = c.reshape(-1, 3).take(last, axis=0)


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
    rays: Optional[Kept] = None,
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
    rays:
        Where the view's ray bundle (:func:`view_rays`) is kept, per
        (camera object, (width, height, bounds)); ``None`` builds it
        for this call alone.
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
        n_rays = width * height
        bounds = volume.bounds()

        def build() -> Tuple[np.ndarray, ...]:
            return view_rays(camera, width, height, bounds)

        position, ray_ids, dirs, t_enter, t_exit, cos = (
            build() if rays is None else rays.get((camera, (width, height, bounds)), build)
        )
        m = ray_ids.size

        if depth_limit is not None:
            if depth_limit.shape != (height, width):
                raise RenderingError("depth_limit shape mismatch")
            # convert view-space depth (distance along forward axis) to ray t
            with np.errstate(divide="ignore", invalid="ignore"):
                t_geom = depth_limit.reshape(-1).take(ray_ids) / cos
            t_exit = np.minimum(t_exit, np.where(np.isfinite(t_geom), t_geom, np.inf))

        color = np.zeros((n_rays, 3), dtype=np.float64)
        transmittance = np.ones(n_rays, dtype=np.float64)

        # -- empty-space skipping setup --------------------------------------
        live_flat: Optional[np.ndarray] = None
        cell_shape: Optional[Tuple[int, int, int]] = None
        t_start, t_limit = t_enter, t_exit
        skip = _skip_setup(volume, transfer, name)
        nothing_contributes = False
        if skip is not None:
            live_flat, cell_shape, occupied_box = skip
            if live_flat is None:
                nothing_contributes = True
            else:
                tb_enter, tb_exit = _ray_box_intersection(
                    np.broadcast_to(position, (m, 3)), dirs.T, occupied_box
                )
                # clip sampling to the occupied box, preserving the exact
                # t_enter + k*step sample positions; one step of slack on
                # each side absorbs the intersection's floating-point error
                with np.errstate(invalid="ignore"):
                    lead = np.maximum(np.floor((tb_enter - t_enter) / step) - 1.0, 0.0)
                t_start = t_enter + lead * step
                t_limit = np.minimum(t_exit, tb_exit + 2.0 * step)

        hit = (t_enter < t_exit) & (t_start < t_limit)
        if nothing_contributes:
            hit = np.zeros(m, dtype=bool)

        gradient = volume.gradient(name) if lighting else None
        # a NaN shade poisons even a zero-opacity sample's (T·0)·rgb
        shade_all = lighting and volume.gradient_has_inf(name)
        light = np.array(light_direction, dtype=np.float64)
        light /= max(np.linalg.norm(light), 1e-30)

        # opacity correction reference: transfer functions are defined per
        # unit step of the smallest spacing
        reference_step = float(min(volume.spacing))
        exponent = step / reference_step
        origin = np.asarray(volume.origin)[:, None, None]
        spacing = np.asarray(volume.spacing)[:, None, None]

        # instrumentation state is accumulated in plain locals so the
        # per-block cost with recording off is a single branch
        _obs_on = obs.enabled()
        _samples = 0
        _skipped = 0
        _steps = 0

        # the active rays, compacted: pixel id, direction (3, n), next t,
        # interval end, transmittance and color so far
        sel = np.flatnonzero(hit)
        ids = ray_ids.take(sel)
        d = dirs.take(sel, axis=1)
        t, t_end = t_start.take(sel), t_limit.take(sel)
        trans = np.ones(ids.size)
        col = np.zeros((ids.size, 3))
        max_steps = int(np.ceil(volume.diagonal() / step)) + 2
        done = 0
        while ids.size and done < max_steps:
            n = ids.size
            k = max(1, min(_SAMPLE_BUDGET // n, _MAX_BLOCK_STEPS, max_steps - done))
            # block arrays are step-major — sample (j, r) is j-th step of
            # ray r, flat j * n + r — so each running product and sum
            # below is one vectorised call per step, in step order
            ts = np.empty((k + 1, n))
            ts[0] = t
            for j in range(k):
                np.add(ts[j], step, out=ts[j + 1])
            pts = position[:, None, None] + d[:, None, :] * ts[:k]
            idx = ((pts - origin) / spacing).reshape(3, k * n)
            if live_flat is None:
                live = np.arange(k * n)
            else:
                cells = np.floor(idx).astype(np.intp)
                flat = np.ravel_multi_index(cells, cell_shape, mode="clip")
                live = np.flatnonzero(live_flat[flat])

            # after how many of the block's steps each ray still marches
            # on: it takes min(ok + 1, k) steps and survives the block
            # iff ok == k.  Both keep tests hold on a prefix of the block
            # (t only grows, transmittance only shrinks), so a count of
            # passes is the step of the first failure.
            ok = np.count_nonzero(ts[1:] < t_end, axis=0)
            if live.size:
                # (2-D gathers go through take(): fancy indexing copies
                # rows several times slower)
                norm, alpha = transfer.evaluate_opacity(
                    volume.sample_index(idx.take(live, axis=1), name)
                )
                alpha = 1.0 - np.power(1.0 - np.clip(alpha, 0.0, 0.999), exponent)
                pos = live
                if not shade_all:
                    vis = np.flatnonzero(alpha)
                    pos, alpha, norm = live[vis], alpha[vis], norm[vis]
                rgb = transfer.color(norm)
                if gradient is not None and pos.size:
                    rgb = rgb * _shading(gradient, idx.take(pos, axis=1), light)[:, None]
                _composite(pos, alpha, rgb, k, trans, col, ok)
            if _obs_on:
                taken = np.minimum(ok + 1, k)
                step_of, ray = np.divmod(live, n)
                counted = np.count_nonzero(step_of < taken[ray])
                _samples += counted
                _skipped += int(taken.sum()) - counted
                _steps += int(taken.max())
            done += k
            alive = ok == k
            if alive.all():
                t = ts[k]
                continue
            gone = ~alive
            transmittance[ids[gone]] = trans[gone]
            color[ids[gone]] = np.compress(gone, col, axis=0)
            ids, t, t_end, trans = (a[alive] for a in (ids, ts[k], t_end, trans))
            col = np.compress(alive, col, axis=0)
            d = np.compress(alive, d, axis=1)
        transmittance[ids] = trans
        color[ids] = col

        if _obs_on:
            obs.counter("raycast.samples", _samples)
            obs.counter("raycast.samples.skipped", _skipped)
            obs.counter("raycast.rays", int(n_rays))
            _span.set(steps=_steps, samples=_samples, skipped=_skipped)

        alpha_out = 1.0 - transmittance
        rgba = np.concatenate([color, alpha_out[:, None]], axis=1)
        return rgba.reshape(height, width, 4).astype(np.float32)
