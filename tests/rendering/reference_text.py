"""The per-pixel glyph loop — the reference :mod:`repro.rendering.text`
is compared against.

These are the functions that shipped in ``src/`` until text came from a
constant glyph atlas, moved here verbatim: each glyph built bit by bit
from ``_FONT`` and the string concatenated glyph by glyph with a blank
column between.  The patch's dtype, shape and bytes are the contract.
Slow on purpose; never imported from ``src/``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.rendering.text import _FONT, GLYPH_HEIGHT, GLYPH_WIDTH


def glyph_bitmap(char: str) -> np.ndarray:
    """The ``(7, 5)`` boolean bitmap of one character."""
    rows = _FONT.get(char.upper(), _FONT[" "])
    out = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH), dtype=bool)
    for r, bits in enumerate(rows):
        for c in range(GLYPH_WIDTH):
            out[r, c] = bool(bits & (1 << (GLYPH_WIDTH - 1 - c)))
    return out


def render_text(
    text: str,
    color: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    scale: int = 1,
    background_alpha: float = 0.0,
) -> np.ndarray:
    """Render *text* to an RGBA patch ``(7*scale, (6*len-1)*scale, 4)``."""
    if not text:
        return np.zeros((GLYPH_HEIGHT, 1, 4), dtype=np.float32)
    columns = []
    for i, char in enumerate(text):
        columns.append(glyph_bitmap(char))
        if i != len(text) - 1:
            columns.append(np.zeros((GLYPH_HEIGHT, 1), dtype=bool))
    mask = np.concatenate(columns, axis=1)
    if scale > 1:
        mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
    h, w = mask.shape
    patch = np.zeros((h, w, 4), dtype=np.float32)
    patch[..., :3] = np.asarray(color, dtype=np.float32)
    patch[..., 3] = np.where(mask, 1.0, background_alpha)
    return patch
