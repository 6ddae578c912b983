"""Stereo frame composition.

"The underlying VTK architecture provides active and passive 3D stereo
visualization support."  The camera layer already produces left/right
eye pairs (:meth:`~repro.rendering.camera.Camera.stereo_pair`); this
module turns a pair of rendered frames into the deliverable stereo
artifacts:

* **anaglyph** — red/cyan composite viewable with paper glasses (the
  passive-stereo artifact that survives as a single image file);
* **side-by-side** — the format projected on passive polarized walls
  and HMDs;
* **interlaced** — row-interleaved for line-polarized displays
  (the "active" class of hardware, emulated as an image).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.rendering.framebuffer import Framebuffer
from repro.util.errors import RenderingError

FrameLike = Union[Framebuffer, np.ndarray]


def _as_float_rgb(frame: FrameLike) -> np.ndarray:
    if isinstance(frame, Framebuffer):
        return np.clip(frame.color, 0.0, 1.0)
    arr = np.asarray(frame)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise RenderingError(f"expected (h, w, 3) frame, got {arr.shape}")
    if arr.dtype == np.uint8:
        return arr.astype(np.float32) / 255.0
    return np.clip(arr.astype(np.float32), 0.0, 1.0)


def _check_pair(left: np.ndarray, right: np.ndarray) -> None:
    if left.shape != right.shape:
        raise RenderingError(
            f"stereo pair shape mismatch: {left.shape} vs {right.shape}"
        )


def _to_uint8(img: np.ndarray) -> np.ndarray:
    return (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def anaglyph(left: FrameLike, right: FrameLike) -> np.ndarray:
    """Red/cyan anaglyph: left eye → red channel, right eye → green+blue.

    Uses luminance for the red channel (the 'gray' anaglyph recipe,
    which avoids retinal rivalry on saturated colors).
    """
    l = _as_float_rgb(left)
    r = _as_float_rgb(right)
    _check_pair(l, r)
    luminance = l @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
    out = np.empty_like(l)
    out[..., 0] = luminance
    out[..., 1] = r[..., 1]
    out[..., 2] = r[..., 2]
    return _to_uint8(out)


def side_by_side(left: FrameLike, right: FrameLike, gap: int = 0) -> np.ndarray:
    """Left and right frames concatenated horizontally (passive stereo)."""
    l = _as_float_rgb(left)
    r = _as_float_rgb(right)
    _check_pair(l, r)
    if gap < 0:
        raise RenderingError("gap must be >= 0")
    if gap:
        spacer = np.zeros((l.shape[0], gap, 3), dtype=l.dtype)
        return _to_uint8(np.concatenate([l, spacer, r], axis=1))
    return _to_uint8(np.concatenate([l, r], axis=1))


def interlaced(left: FrameLike, right: FrameLike) -> np.ndarray:
    """Row-interleaved composite: even rows left eye, odd rows right."""
    l = _as_float_rgb(left)
    r = _as_float_rgb(right)
    _check_pair(l, r)
    out = l.copy()
    out[1::2] = r[1::2]
    return _to_uint8(out)
