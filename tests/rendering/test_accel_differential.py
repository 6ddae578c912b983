"""The ray caster's per-volume kernels against their references.

``tests/rendering/reference_raycast.py`` calls ``min_max_pyramid``,
``blocked_outside`` and ``gradient`` from ``src``, so the ray-cast
differential test cannot see them drift.  These tests pin each one to
the code it replaced (``tests/rendering/reference_accel.py``): the same
values and the same dtype, over volumes with NaN and ±inf voxels, cells
with no finite corner, integer and float64 data and two-point axes —
and the shading factor to the ``np.linalg.norm`` / row-dot formula it
was written with.
"""

import numpy as np
import pytest

from repro.rendering import raycast
from repro.rendering.accel import MinMaxPyramid
from repro.rendering.image_data import ImageData
from tests.rendering import reference_accel as reference


def _volume(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(2, 9, size=3))
    if kind == "two_point":
        shape = (2,) + shape[1:] if seed % 2 else shape[:2] + (2,)
    if kind == "int":
        return rng.integers(-50, 50, size=shape)
    values = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
    if kind == "float64":
        return values
    values = values.astype(np.float32)
    if kind in ("nonfinite", "two_point"):
        pick = rng.random(shape)
        values[pick < 0.15] = np.nan
        values[(pick >= 0.15) & (pick < 0.2)] = np.inf
        values[(pick >= 0.2) & (pick < 0.25)] = -np.inf
    elif kind == "empty_cells":
        # a 2×2×2 block of NaN is a cell with no finite corner at all
        values[:2, :2, :2] = np.nan
        values[-2:, -2:, -2:] = np.inf
    elif kind == "all_nonfinite":
        values[...] = np.nan
        values.flat[::3] = -np.inf
    elif kind == "signed_zero":
        values[rng.random(shape) < 0.5] = 0.0
        values[rng.random(shape) < 0.5] = -0.0
    return values


KINDS = ("float32", "float64", "int", "nonfinite", "empty_cells", "all_nonfinite",
         "two_point", "signed_zero")
CASES = [(kind, seed) for kind in KINDS for seed in range(4)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_the_cell_bounds_equal_the_eight_offset_build(kind, seed):
    values = _volume(kind, seed)
    pyramid = MinMaxPyramid.build(values)
    for got, want in zip((pyramid.vmin, pyramid.vmax, pyramid.nonfinite),
                         reference.build(values)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _supports(values: np.ndarray, seed: int):
    rng = np.random.default_rng(seed + 100)
    finite = values[np.isfinite(values)].astype(np.float64)
    if finite.size == 0:
        finite = np.array([0.0])
    a, b = np.sort(rng.choice(finite, size=2))
    # bounds exactly at data values, where only the margin decides
    yield float(a), float(b)
    yield -np.inf, float(a)
    yield float(b), np.inf
    yield float(a) - 1e-7, float(a) + 1e-7
    yield -np.inf, np.inf


@pytest.mark.parametrize("kind,seed", CASES)
def test_the_blocked_mask_equals_the_float64_expression(kind, seed):
    values = _volume(kind, seed)
    pyramid = MinMaxPyramid.build(values)
    for lo, hi in _supports(values, seed):
        got = pyramid.blocked_outside(lo, hi)
        want = reference.blocked_outside(pyramid.vmin, pyramid.vmax, lo, hi)
        assert got.dtype == want.dtype == np.bool_
        assert np.array_equal(got, want), (lo, hi)


def test_the_mask_of_the_last_support_is_kept_read_only():
    values = _volume("nonfinite", 7)
    pyramid = MinMaxPyramid.build(values)
    lo, hi = next(_supports(values, 7))
    first = pyramid.blocked_outside(lo, hi)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[...] = False
    assert pyramid.blocked_outside(lo, hi) is first
    # a second support recomputes, and replaces the one entry
    other = pyramid.blocked_outside(-np.inf, lo)
    assert other is not first
    assert np.array_equal(
        other, reference.blocked_outside(pyramid.vmin, pyramid.vmax, -np.inf, lo)
    )
    again = pyramid.blocked_outside(lo, hi)
    assert again is not first and np.array_equal(again, first)


def _image(values: np.ndarray, spacing) -> ImageData:
    volume = ImageData(values.shape, spacing=spacing)
    volume.add_array("v", values)
    return volume


@pytest.mark.parametrize("kind,seed", [c for c in CASES if c[0] != "all_nonfinite"])
def test_the_gradient_equals_np_gradient(kind, seed):
    spacing = tuple(float(s) for s in np.random.default_rng(seed).uniform(0.1, 3.0, 3))
    volume = _image(_volume(kind, seed), spacing)
    with np.errstate(invalid="ignore"):  # inf − inf
        got = volume.gradient("v")
        # ImageData keeps its arrays in float32
        want = reference.gradient(volume.get_array("v"), spacing)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def test_the_gradient_is_read_only_with_contiguous_components():
    volume = _image(_volume("float32", 3), (1.0, 2.0, 0.5))
    gradient = volume.gradient("v")
    assert not gradient.flags.writeable
    with pytest.raises(ValueError):
        gradient[0, 0, 0, 0] = 1.0
    for c in range(3):
        assert gradient[..., c].flags.c_contiguous
    assert volume.gradient("v") is gradient


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_one_point_axis_has_a_zero_gradient_component(axis):
    """``np.gradient`` refuses a one-point axis; a one-level field has
    no derivative along it, and the other components are unchanged."""
    shape = [5, 4, 3]
    shape[axis] = 1
    values = np.random.default_rng(axis).normal(size=shape).astype(np.float32)
    spacing = (0.5, 2.0, 1.5)
    gradient = _image(values, spacing).gradient("v")
    assert gradient.shape == tuple(shape) + (3,)
    assert not gradient[..., axis].any()
    flat = np.squeeze(values.astype(np.float64), axis=axis)
    others = [a for a in range(3) if a != axis]
    for c, want in zip(others, np.gradient(flat, *(spacing[a] for a in others))):
        assert np.array_equal(np.squeeze(gradient[..., c], axis=axis), want)


def _reference_shading(gradient, idx, light):
    """The shading factor as the reference ray caster writes it."""
    from scipy import ndimage

    g = np.empty((idx.shape[1], 3), dtype=np.float64)
    for c in range(3):
        g[:, c] = ndimage.map_coordinates(
            gradient[..., c], idx, order=1, mode="nearest", prefilter=False,
        )
    glen = np.linalg.norm(g, axis=1)
    unit = g / np.maximum(glen, 1e-12)[:, None]
    dot = unit[:, 0] * light[0] + unit[:, 1] * light[1] + unit[:, 2] * light[2]
    return np.where(glen > 1e-12, 0.4 + 0.6 * np.abs(dot), 1.0)


def test_the_column_norm_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(4096, 3)) * 10.0 ** rng.integers(-160, 160, size=(4096, 1))
    g[:8] = 0.0
    g[8:16, 1] = np.inf
    g[16:24, 2] = np.nan
    cols = g.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.sqrt((cols[0] * cols[0] + cols[1] * cols[1]) + cols[2] * cols[2])
        want = np.linalg.norm(g, axis=1)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("kind,seed", [("float32", 1), ("nonfinite", 2),
                                       ("signed_zero", 3), ("two_point", 5)])
def test_the_shading_factor_equals_the_row_formula(kind, seed):
    values = _volume(kind, seed)
    if kind == "float32":
        values = values * np.float32(1e30)  # squares overflow to inf
    rng = np.random.default_rng(seed)
    idx = rng.uniform(-0.5, np.array(values.shape)[:, None] - 0.5, size=(3, 2000))
    light = np.array([0.4, -0.5, 0.8]) / np.linalg.norm([0.4, -0.5, 0.8])
    with np.errstate(over="ignore", invalid="ignore"):
        gradient = _image(values, (0.7, 1.3, 0.4)).gradient("v")
        got = raycast._shading(gradient, idx, light)
        want = _reference_shading(gradient, idx, light)
    assert np.array_equal(got, want, equal_nan=True)
