"""RGB + depth framebuffer.

The render target shared by the rasterizer, the volume ray caster
(composited via the depth buffer) and the 2-D overlay layer (labels,
legends).  Color is float32 RGB in [0, 1]; depth is view-space distance
(smaller = nearer), initialised to +inf.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.errors import RenderingError


class Framebuffer:
    """A ``(height, width)`` RGB color buffer with a z-buffer."""

    def __init__(self, width: int, height: int,
                 background: Tuple[float, float, float] = (0.08, 0.08, 0.12)) -> None:
        if width < 1 or height < 1:
            raise RenderingError(f"bad framebuffer size {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.background = tuple(float(c) for c in background)
        self.color = np.empty((self.height, self.width, 3), dtype=np.float32)
        self.depth = np.empty((self.height, self.width), dtype=np.float32)
        self.clear()

    def clear(self) -> None:
        # one row, then row copies: a tenth of a (3,) broadcast's cost
        self.color[:1] = np.asarray(self.background, dtype=np.float32)
        self.color[1:] = self.color[:1]
        self.depth[:] = np.inf

    @classmethod
    def from_arrays(
        cls,
        color: np.ndarray,
        depth: np.ndarray,
        background: Tuple[float, float, float] = (0.08, 0.08, 0.12),
    ) -> "Framebuffer":
        """Wrap existing ``(h, w, 3)`` color / ``(h, w)`` depth arrays.

        The arrays are used in place — not copied, not cleared.  Both
        must be C-contiguous float32 (pixel writes address them flat)
        and agree on ``(h, w)``.
        """
        color = np.asarray(color)
        depth = np.asarray(depth)
        if color.ndim != 3 or color.shape[2] != 3 or color.dtype != np.float32:
            raise RenderingError(f"from_arrays: bad color buffer {color.shape} {color.dtype}")
        if depth.shape != color.shape[:2] or depth.dtype != np.float32:
            raise RenderingError(f"from_arrays: bad depth buffer {depth.shape} {depth.dtype}")
        if not (color.flags.c_contiguous and depth.flags.c_contiguous):
            raise RenderingError("from_arrays: buffers must be C-contiguous")
        fb = cls.__new__(cls)
        fb.height, fb.width = int(color.shape[0]), int(color.shape[1])
        fb.background = tuple(float(c) for c in background)
        fb.color = color
        fb.depth = depth
        return fb

    def copy(self) -> "Framebuffer":
        """An independent framebuffer with the same pixels and depths."""
        return Framebuffer.from_arrays(
            self.color.copy(), self.depth.copy(), background=self.background
        )

    def __repr__(self) -> str:
        return f"Framebuffer({self.width}x{self.height})"

    # -- pixel writes ----------------------------------------------------

    def resolve(
        self, pixels: np.ndarray, groups: np.ndarray, depths: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Depth-test a batch of fragments; returns ``(winners, passed)``.

        Fragments arrive in draw order: *pixels* are flat in-range
        indices (``row * width + col``), *groups* the non-decreasing id
        of the primitive each fragment belongs to, *depths* float32.
        The outcome is what drawing the groups one after another would
        leave behind:

        * a fragment passes iff it is strictly nearer than the incoming
          depth buffer and than every fragment of an *earlier* group on
          its pixel — *passed* counts those, not the pixels that survive;
        * per pixel the nearest passing fragment wins; equal depths go
          to the earliest group and, inside it, to the latest fragment.

        The depth buffer is updated; *winners* indexes the fragments
        whose color the caller still has to write (one per pixel won).
        """
        alive = np.flatnonzero(depths < self.depth.reshape(-1)[pixels])
        if alive.size == 0:
            return alive, 0
        # one sort brings each pixel's fragments together, draw order kept:
        # the fragment's position rides in the low bits of a unique key
        shift = max(int(alive.size - 1).bit_length(), 1)
        order = np.sort((pixels[alive] << shift) | np.arange(alive.size))
        frag = alive[order & ((1 << shift) - 1)]
        pix = order >> shift
        # float32 -> int32 with the same ordering (+0.0 folds -0.0 into 0.0),
        # offset per pixel so that one running minimum over the whole
        # batch restarts at every pixel: later pixels sit strictly below
        bits = (depths[frag] + 0.0).view(np.int32)
        key = (bits ^ ((bits >> 31) & 0x7FFFFFFF)).astype(np.int64) - (pix << 32)
        nearest = np.minimum.accumulate(key)
        # a group is compared against the minimum *before* its first fragment
        # on the pixel; at a pixel's first fragment that is the previous
        # pixel's (larger) minimum, i.e. the incoming buffer it already beat
        new_run = np.ones(key.size, dtype=bool)
        group = groups[frag]
        new_run[1:] = (pix[1:] != pix[:-1]) | (group[1:] != group[:-1])
        run_first = np.maximum.accumulate(np.where(new_run, np.arange(key.size), 0))
        before = np.concatenate(([np.iinfo(np.int64).max], nearest[:-1]))
        passed = key < before[run_first]
        # the pixel's last fragment that passed *and* equals the running
        # minimum is in the earliest group to reach the final depth
        record = np.flatnonzero(passed & (key == nearest))
        last = np.ones(record.size, dtype=bool)
        last[:-1] = pix[record[1:]] != pix[record[:-1]]
        won = record[last]
        winners = frag[won]
        self.depth.reshape(-1)[pix[won]] = depths[winners]
        return winners, int(np.count_nonzero(passed))

    def write_pixels(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        depths: np.ndarray,
        colors: np.ndarray,
    ) -> int:
        """Depth-tested opaque write of scattered pixels; returns count drawn.

        One :meth:`resolve` group: every fragment is tested against the
        incoming buffer and duplicate pixels are resolved nearest-first.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        depths = np.asarray(depths, dtype=np.float32)
        inside = np.flatnonzero(
            (rows >= 0) & (rows < self.height) & (cols >= 0) & (cols < self.width)
        )
        pixels = rows[inside] * self.width + cols[inside]
        winners, passed = self.resolve(
            pixels, np.zeros(pixels.size, dtype=np.intp), depths[inside]
        )
        self.color.reshape(-1, 3)[pixels[winners]] = np.asarray(colors)[inside[winners]]
        return passed

    def blend_image(self, rgba: np.ndarray) -> None:
        """Alpha-blend a full-frame ``(h, w, 4)`` image over the buffer
        (no depth test — used for volume-render composites and overlays)."""
        if rgba.shape != (self.height, self.width, 4):
            raise RenderingError(
                f"blend_image: shape {rgba.shape} != ({self.height}, {self.width}, 4)"
            )
        alpha = rgba[..., 3:4].astype(np.float32)
        self.color[:] = rgba[..., :3].astype(np.float32) * alpha + self.color * (1.0 - alpha)

    def blend_patch(self, row: int, col: int, rgba: np.ndarray) -> None:
        """Alpha-blend a small ``(h, w, 4)`` patch at (row, col), clipped."""
        ph, pw = rgba.shape[:2]
        r0, c0 = max(row, 0), max(col, 0)
        r1, c1 = min(row + ph, self.height), min(col + pw, self.width)
        if r0 >= r1 or c0 >= c1:
            return
        patch = rgba[r0 - row : r1 - row, c0 - col : c1 - col]
        alpha = patch[..., 3:4].astype(np.float32)
        dest = self.color[r0:r1, c0:c1]
        dest[:] = patch[..., :3].astype(np.float32) * alpha + dest * (1.0 - alpha)

    # -- output -----------------------------------------------------------

    def to_uint8(self) -> np.ndarray:
        """The color buffer as ``(h, w, 3)`` uint8."""
        return (np.clip(self.color, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def save(self, path: str) -> None:
        """Write the color buffer as a binary PPM file."""
        from repro.rendering.ppm import write_ppm

        write_ppm(path, self.to_uint8())

    def coverage(self) -> float:
        """Fraction of pixels whose depth was written (geometry coverage)."""
        return float(np.isfinite(self.depth).mean())

    def downsample(self, factor: int) -> np.ndarray:
        """Box-filtered uint8 image at 1/factor resolution.

        Used by the hyperwall server's reduced-resolution mirror cells.
        """
        if factor < 1:
            raise RenderingError("downsample factor must be >= 1")
        h = (self.height // factor) * factor
        w = (self.width // factor) * factor
        img = self.color[:h, :w].reshape(h // factor, factor, w // factor, factor, 3)
        return (np.clip(img.mean(axis=(1, 3)), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
