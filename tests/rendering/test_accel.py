"""Property tests for the min/max tile pyramid and empty-space skipping.

The pyramid's entire value is a conservativeness guarantee: a tile it
rules out must truly contain nothing — no voxel outside the tile's
bounds, no straddling cell in a non-straddling tile, and, end to end,
no sample whose skipping could change a rendered byte.  Hypothesis
sweeps volume shapes, value distributions (including NaN holes), tile
sizes and isovalues; the differential tests then pin the ray caster
and isosurface outputs with acceleration on vs off.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rendering.accel import DEFAULT_TILE, MinMaxPyramid
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.isosurface import candidate_cells, marching_tetrahedra
from repro.rendering.raycast import raycast_volume
from repro.rendering.transfer_function import TransferFunction
from repro.util.errors import RenderingError


@st.composite
def scalar_volumes(draw):
    shape = (
        draw(st.integers(min_value=2, max_value=9)),
        draw(st.integers(min_value=2, max_value=9)),
        draw(st.integers(min_value=2, max_value=9)),
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape).astype(np.float32)
    if draw(st.booleans()):  # punch a NaN hole through part of the data
        mask = rng.random(shape) < draw(st.floats(min_value=0.05, max_value=0.4))
        values[mask] = np.nan
    return values


@st.composite
def tiles(draw):
    return draw(st.integers(min_value=1, max_value=5))


class TestPyramidBounds:
    @settings(max_examples=60, deadline=None)
    @given(values=scalar_volumes(), tile=tiles())
    def test_cell_bounds_cover_all_corner_voxels(self, values, tile):
        """Every finite voxel of every cell lies within its tile's bounds."""
        pyramid = MinMaxPyramid.build(values, tile=tile)
        level = pyramid.levels[0]
        nx, ny, nz = values.shape
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    cell = values[i : i + 2, j : j + 2, k : k + 2]
                    ti, tj, tk = i // tile, j // tile, k // tile
                    finite = cell[np.isfinite(cell)]
                    if finite.size:
                        assert level.vmin[ti, tj, tk] <= finite.min()
                        assert level.vmax[ti, tj, tk] >= finite.max()
                    if np.isnan(cell).any():
                        assert level.nonfinite[ti, tj, tk]

    @settings(max_examples=40, deadline=None)
    @given(values=scalar_volumes(), tile=tiles())
    def test_coarser_levels_contain_finer(self, values, tile):
        pyramid = MinMaxPyramid.build(values, tile=tile)
        for fine, coarse in zip(pyramid.levels, pyramid.levels[1:]):
            for ti in range(fine.shape[0]):
                for tj in range(fine.shape[1]):
                    for tk in range(fine.shape[2]):
                        ci, cj, ck = ti // 2, tj // 2, tk // 2
                        if fine.vmin[ti, tj, tk] <= fine.vmax[ti, tj, tk]:
                            assert coarse.vmin[ci, cj, ck] <= fine.vmin[ti, tj, tk]
                            assert coarse.vmax[ci, cj, ck] >= fine.vmax[ti, tj, tk]
                        if fine.nonfinite[ti, tj, tk]:
                            assert coarse.nonfinite[ci, cj, ck]

    @settings(max_examples=60, deadline=None)
    @given(
        values=scalar_volumes(),
        tile=tiles(),
        isovalue=st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_straddling_never_excludes_a_contributing_cell(
        self, values, tile, isovalue
    ):
        """A cell that would emit triangles always lies in a True tile."""
        pyramid = MinMaxPyramid.build(values, tile=tile)
        mask = pyramid.cell_mask(pyramid.straddling(isovalue))
        prepared = np.where(np.isfinite(values), values, -np.inf)
        nx, ny, nz = values.shape
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    cell = prepared[i : i + 2, j : j + 2, k : k + 2]
                    crosses = bool((cell > isovalue).any() and (cell <= isovalue).any())
                    if crosses:
                        assert mask[i, j, k], (
                            f"cell ({i},{j},{k}) straddles isovalue {isovalue} "
                            "but its tile was culled"
                        )

    @settings(max_examples=60, deadline=None)
    @given(
        values=scalar_volumes(),
        tile=tiles(),
        lo=st.floats(min_value=-2.0, max_value=2.0),
        span=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_blocked_tiles_hold_no_in_support_value(self, values, tile, lo, span):
        """Every finite voxel of a blocked tile is outside [lo, hi]."""
        hi = lo + span
        pyramid = MinMaxPyramid.build(values, tile=tile)
        blocked = pyramid.blocked_outside(lo, hi)
        mask = pyramid.cell_mask(blocked)
        nx, ny, nz = values.shape
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    if not mask[i, j, k]:
                        continue
                    cell = values[i : i + 2, j : j + 2, k : k + 2]
                    finite = cell[np.isfinite(cell)]
                    assert not ((finite >= lo) & (finite <= hi)).any()

    def test_degenerate_volume_rejected(self):
        with pytest.raises(RenderingError):
            MinMaxPyramid.build(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(RenderingError):
            MinMaxPyramid.build(np.zeros((4, 4), dtype=np.float32))

    def test_default_tile_sane(self):
        assert DEFAULT_TILE >= 1

    def test_active_cell_bounds_tight_and_clipped(self):
        values = np.zeros((9, 9, 9), dtype=np.float32)
        pyramid = MinMaxPyramid.build(values, tile=4)
        mask = np.zeros(pyramid.levels[0].shape, dtype=bool)
        assert pyramid.active_cell_bounds(mask) is None
        mask[1, 0, 1] = True
        i0, i1, j0, j1, k0, k1 = pyramid.active_cell_bounds(mask)
        assert (i0, i1) == (4, 8)
        assert (j0, j1) == (0, 4)
        assert (k0, k1) == (4, 8)


def _blob_volume(n=20):
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("blob", np.exp(-3 * (X**2 + Y**2 + Z**2)))
    return vol


class TestDifferentialSkipping:
    """Acceleration on vs off must be byte-for-byte invisible."""

    @settings(max_examples=8, deadline=None)
    @given(
        center=st.floats(min_value=0.1, max_value=0.95),
        width=st.floats(min_value=0.05, max_value=0.6),
    )
    def test_raycast_skipping_is_bitwise_invisible(self, center, width):
        volume = _blob_volume(14)
        camera = Camera.fit_bounds(volume.bounds())
        transfer = TransferFunction(
            volume.scalar_range(), center=center, width=width
        )
        on = raycast_volume(
            volume, transfer, camera, 32, 24, empty_space_skipping=True
        )
        off = raycast_volume(
            volume, transfer, camera, 32, 24, empty_space_skipping=False
        )
        assert on.tobytes() == off.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(isovalue=st.floats(min_value=0.05, max_value=0.95))
    def test_isosurface_culling_is_array_identical(self, isovalue):
        volume = _blob_volume(14)
        on = marching_tetrahedra(volume, isovalue, accelerate=True)
        off = marching_tetrahedra(volume, isovalue, accelerate=False)
        assert np.array_equal(on.points, off.points)
        assert np.array_equal(on.triangles, off.triangles)

    def test_raycast_skipping_with_nan_regions(self):
        volume = _blob_volume(14)
        blob = volume.get_array("blob").copy()
        blob[4:9, :, :] = np.nan
        volume.add_array("blob", blob)
        camera = Camera.fit_bounds(volume.bounds())
        transfer = TransferFunction((0.0, 1.0), center=0.7, width=0.3)
        on = raycast_volume(
            volume, transfer, camera, 32, 24, empty_space_skipping=True
        )
        off = raycast_volume(
            volume, transfer, camera, 32, 24, empty_space_skipping=False
        )
        assert on.tobytes() == off.tobytes()

    def test_zero_opacity_short_circuit_matches_brute_force(self):
        volume = _blob_volume(12)
        camera = Camera.fit_bounds(volume.bounds())
        # window entirely above the data range: opacity support empty
        transfer = TransferFunction((5.0, 6.0), center=0.5, width=0.2)
        on = raycast_volume(
            volume, transfer, camera, 24, 18, empty_space_skipping=True
        )
        off = raycast_volume(
            volume, transfer, camera, 24, 18, empty_space_skipping=False
        )
        assert on.tobytes() == off.tobytes()

    def test_candidate_cells_cached_on_volume(self):
        volume = _blob_volume(12)
        first = candidate_cells(volume, 0.5, "blob")
        again = candidate_cells(volume, 0.5, "blob")
        assert first.shape == (11, 11, 11)
        # the pyramid behind the mask is cached per array
        assert volume.min_max_pyramid("blob") is volume.min_max_pyramid("blob")
        assert np.array_equal(first, again)
