"""One-pass marching tetrahedra against the per-tetrahedron reference.

The oracle is :mod:`tests.rendering.reference_isosurface`, the former
``_triangle_points`` moved out verbatim.  The raw triangle corners, in
their order, are the contract — ``deduplicate=False`` surfaces are
those corners — so every comparison is of bytes, with candidate-cell
acceleration on and off.  Then two structural guards: an extraction
costs the same number of interpreter calls whatever cases are present,
and at 96³ it holds at most 1.5 times the reference's traced peak.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from repro.data.catalog import synthetic_reanalysis
from repro.dv3d.translation import translate_variable
from repro.rendering import isosurface
from repro.rendering.image_data import ImageData
from repro.rendering.isosurface import marching_tetrahedra
from tests.rendering import reference_isosurface as reference
from tests.rendering.reference_rasterizer import make_volume


def _volume(data: np.ndarray) -> ImageData:
    volume = ImageData(data.shape, origin=(-1.0, 2.0, 0.5), spacing=(0.5, 0.25, 2.0))
    volume.add_array("v", data)
    return volume


def _seeded(seed: int, shape) -> np.ndarray:
    """Values on a 0.25 lattice (so many sit exactly on the isovalues
    below), with NaN and -inf voxels."""
    rng = np.random.default_rng(seed)
    data = np.round(rng.normal(size=shape) * 4) / 4
    data[rng.random(shape) < 0.08] = np.nan
    data[rng.random(shape) < 0.04] = -np.inf
    return data


def _explore_surface_volume() -> ImageData:
    """The Isosurface stratum's ``ta`` volume on explore_surface's grid."""
    dataset = synthetic_reanalysis(nlat=10, nlon=16, nlev=5, ntime=12, seed="e2e")
    return translate_variable(dataset("ta"), 3, None)


VOLUMES = {
    **{f"seeded-{seed}": (lambda seed=seed: _volume(_seeded(seed, (7, 6, 5))))
       for seed in range(4)},
    "seeded-long": lambda: _volume(_seeded(11, (13, 3, 9))),
    "two-wide": lambda: _volume(_seeded(5, (2, 2, 2))),
    "two-wide-slab": lambda: _volume(_seeded(6, (2, 9, 7))),
    "all-nan-corner": lambda: _volume(np.where(np.arange(60).reshape(3, 4, 5) < 20,
                                               np.nan, 1.0)),
    "blob": lambda: make_volume(16),
    "explore_surface": _explore_surface_volume,
}


def _isovalues(volume: ImageData):
    values = volume.get_array(volume.active_scalars_name)
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    # exactly at a voxel value, between, all inside and all outside
    return [0.0, 0.25, float(np.median(finite)), (lo + hi) / 2, lo - 1.0, hi + 1.0]


def _mapped(volume: ImageData) -> np.ndarray:
    """The active scalars with non-finite voxels ``-inf``, as
    :func:`marching_tetrahedra` hands them to ``_triangle_points``."""
    scalars = volume.get_array(volume.active_scalars_name)
    return np.where(np.isfinite(scalars), scalars, -np.inf).astype(np.float64)


def _raw(volume: ImageData, isovalue: float, accelerate: bool) -> np.ndarray:
    candidates = (isosurface.candidate_cells(volume, isovalue, volume.active_scalars_name)
                  if accelerate else None)
    return isosurface._triangle_points(_mapped(volume), isovalue, candidates)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("accelerate", [True, False])
@pytest.mark.parametrize("name", sorted(VOLUMES))
def test_raw_triangle_points_are_the_references_bytes(name, accelerate):
    volume = VOLUMES[name]()
    produced = 0
    for isovalue in _isovalues(volume):
        expected = reference.triangle_points(volume, isovalue, accelerate)
        assert _same(_raw(volume, isovalue, accelerate), expected), isovalue
        produced += expected.shape[0]
    assert produced > 0


@pytest.mark.parametrize("accelerate", [True, False])
@pytest.mark.parametrize("name", sorted(VOLUMES))
def test_the_undeduplicated_surface_is_the_references(name, accelerate):
    volume = VOLUMES[name]()
    for isovalue in _isovalues(volume):
        surface = marching_tetrahedra(volume, isovalue, deduplicate=False,
                                      accelerate=accelerate)
        expected = reference.raw_surface(volume, isovalue, accelerate)
        assert _same(surface.points, expected.points), isovalue
        assert _same(surface.triangles, expected.triangles), isovalue


@pytest.mark.parametrize("fill", [0.0, 3.0])
def test_a_volume_all_on_one_side_has_no_triangles(fill):
    volume = _volume(np.full((4, 5, 3), fill))
    for accelerate in (True, False):
        points = _raw(volume, 1.0, accelerate)
        assert points.shape == (0, 3, 3) and points.dtype == np.float64
        assert _same(points, reference.triangle_points(volume, 1.0, accelerate))


def _interpreter_calls(fn):
    """Python + C function calls made while *fn* runs."""
    calls = [0]

    def count(_frame, event, _arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


def _extraction_calls(volume: ImageData, isovalue: float, extract) -> int:
    """The most interpreter calls *extract* makes, acceleration on or off."""
    values = volume.get_array("v")
    return max(
        _interpreter_calls(lambda: extract(values, isovalue, candidates))
        for candidates in (isosurface.candidate_cells(volume, isovalue, "v"), None)
    )


def test_calls_do_not_scale_with_the_cases_present():
    """A plane crosses the tetrahedra in a few cases, a noisy field in
    all fourteen: the per-case reference pays for each, one pass does not."""
    n = 12
    ramp = np.broadcast_to(np.arange(n, dtype=np.float64)[:, None, None], (n, n, n))
    few = (_volume(ramp.copy()), 4.5)
    many = (_volume(np.random.default_rng(3).normal(size=(n, n, n))), 0.0)
    calls = {name: _extraction_calls(*case, isosurface._triangle_points)
             for name, case in (("few", few), ("many", many))}
    assert calls["many"] <= calls["few"]
    assert calls["many"] < _extraction_calls(*many, reference._triangle_points) / 3


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_at_96_cubed_is_within_half_again_of_the_reference():
    volume = make_volume(96)
    candidates = isosurface.candidate_cells(volume, 0.5, volume.active_scalars_name)
    values = _mapped(volume)
    peak = _traced_peak(lambda: isosurface._triangle_points(values, 0.5, candidates))
    reference_peak = _traced_peak(
        lambda: reference._triangle_points(values, 0.5, candidates))
    assert peak <= 1.5 * reference_peak, (peak, reference_peak)
