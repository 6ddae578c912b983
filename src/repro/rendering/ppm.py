"""Binary PPM/PGM image I/O.

The only image format simple enough to implement in a few lines with no
external dependencies, and sufficient for the examples and benchmarks
to persist rendered frames (and for tests to round-trip them).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.util.errors import RenderingError

PathLike = Union[str, Path]


def ppm_bytes(image: np.ndarray) -> bytes:
    """Encode an ``(h, w, 3)`` uint8 array as binary PPM (P6) bytes.

    The serving layer ships frames as these payloads: the encoding is
    deterministic, so equal framebuffers produce byte-identical
    responses (the coalescing fan-out contract).
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise RenderingError(f"ppm_bytes expects (h, w, 3) uint8, got {image.shape} {image.dtype}")
    height, width = image.shape[:2]
    return ppm_header(width, height) + np.ascontiguousarray(image).tobytes()


def ppm_header(width: int, height: int) -> bytes:
    """The header :func:`ppm_bytes` puts before *width* x *height* pixels."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def write_ppm(path: PathLike, image: np.ndarray) -> None:
    """Write an ``(h, w, 3)`` uint8 array as binary PPM (P6)."""
    with open(path, "wb") as handle:
        handle.write(ppm_bytes(image))


def write_pgm(path: PathLike, image: np.ndarray) -> None:
    """Write an ``(h, w)`` uint8 array as binary PGM (P5)."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise RenderingError(f"write_pgm expects (h, w) uint8, got {image.shape} {image.dtype}")
    height, width = image.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(np.ascontiguousarray(image).tobytes())


def read_ppm(path: PathLike) -> np.ndarray:
    """Read a binary PPM (P6) or PGM (P5) written by this module."""
    with open(path, "rb") as handle:
        blob = handle.read()
    # header: magic, width, height, maxval separated by whitespace
    parts = []
    pos = 0
    while len(parts) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":  # comment line
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        parts.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    magic = parts[0].decode("ascii")
    width, height, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    if maxval != 255:
        raise RenderingError(f"unsupported maxval {maxval}")
    if magic == "P6":
        data = np.frombuffer(blob, dtype=np.uint8, count=width * height * 3, offset=pos)
        return data.reshape(height, width, 3).copy()
    if magic == "P5":
        data = np.frombuffer(blob, dtype=np.uint8, count=width * height, offset=pos)
        return data.reshape(height, width).copy()
    raise RenderingError(f"unsupported magic {magic!r}")
