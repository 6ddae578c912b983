"""Property tests for the per-cell min/max bounds and empty-space skipping.

The bounds' entire value is a conservativeness guarantee: a cell they
rule out must truly contain nothing — no corner voxel outside the
cell's bounds, no straddling cell reported as non-straddling, and, end
to end, no sample whose skipping could change a rendered byte.
Hypothesis sweeps volume shapes, value distributions (including NaN
holes) and isovalues; the differential tests then pin the ray caster
against the skipping-off reference loop and the isosurface with
acceleration on vs off.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rendering.accel import MinMaxPyramid
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.isosurface import candidate_cells, marching_tetrahedra
from repro.rendering.raycast import raycast_volume
from repro.rendering.transfer_function import TransferFunction
from repro.util.errors import RenderingError
from tests.rendering import reference_raycast as reference


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


class TestPyramidBounds:
    @settings(max_examples=60, deadline=None)
    @given(values=scalar_volumes())
    def test_cell_bounds_cover_all_corner_voxels(self, values):
        """Each cell's bounds are exactly its finite corners' min and max."""
        pyramid = MinMaxPyramid.build(values)
        assert pyramid.vmin.shape == pyramid.cell_dims
        nx, ny, nz = values.shape
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    cell = values[i : i + 2, j : j + 2, k : k + 2]
                    finite = cell[np.isfinite(cell)]
                    if finite.size:
                        assert pyramid.vmin[i, j, k] == finite.min()
                        assert pyramid.vmax[i, j, k] == finite.max()
                    else:
                        assert pyramid.vmin[i, j, k] > pyramid.vmax[i, j, k]
                    assert pyramid.nonfinite[i, j, k] == (finite.size < cell.size)

    @settings(max_examples=60, deadline=None)
    @given(
        values=scalar_volumes(),
        isovalue=st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_straddling_never_excludes_a_contributing_cell(self, values, isovalue):
        """A cell that would emit triangles is always a candidate."""
        mask = MinMaxPyramid.build(values).straddling(isovalue)
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
                            "but was culled"
                        )

    @settings(max_examples=60, deadline=None)
    @given(
        values=scalar_volumes(),
        lo=st.floats(min_value=-2.0, max_value=2.0),
        span=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_blocked_cells_hold_no_in_support_value(self, values, lo, span):
        """Every finite corner of a blocked cell is outside [lo, hi]."""
        hi = lo + span
        blocked = MinMaxPyramid.build(values).blocked_outside(lo, hi)
        nx, ny, nz = values.shape
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    if not blocked[i, j, k]:
                        continue
                    cell = values[i : i + 2, j : j + 2, k : k + 2]
                    finite = cell[np.isfinite(cell)]
                    assert not ((finite >= lo) & (finite <= hi)).any()

    def test_straddling_compares_in_float64(self):
        """Bounds are kept in float32, the isovalue is not: 0.50000003
        lies between the float32 neighbours 0.5 and 0.50000006, and a
        float32 comparison would round it up and cull the cell."""
        values = np.zeros((2, 2, 2), dtype=np.float32)
        values[1, 1, 1] = np.nextafter(np.float32(0.5), np.float32(1.0))
        assert MinMaxPyramid.build(values).straddling(0.50000003)[0, 0, 0]

    def test_degenerate_volume_rejected(self):
        with pytest.raises(RenderingError):
            MinMaxPyramid.build(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(RenderingError):
            MinMaxPyramid.build(np.zeros((4, 4), dtype=np.float32))

    def test_active_cell_bounds_tight_and_clipped(self):
        pyramid = MinMaxPyramid.build(np.zeros((9, 9, 9), dtype=np.float32))
        mask = np.zeros(pyramid.cell_dims, dtype=bool)
        assert pyramid.active_cell_bounds(mask) is None
        mask[4, 0, 5] = True
        mask[6, 2, 5] = True
        assert pyramid.active_cell_bounds(mask) == (4, 7, 0, 3, 5, 6)
        mask[7, 7, 7] = True
        assert pyramid.active_cell_bounds(mask) == (4, 8, 0, 8, 5, 8)


def _blob_volume(n=20):
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("blob", np.exp(-3 * (X**2 + Y**2 + Z**2)))
    return vol


def _skipping_off(volume, transfer, camera, width, height):
    """The reference loop evaluating every sample: what skipping must equal."""
    return reference.raycast_volume(
        volume, transfer, camera, width, height, empty_space_skipping=False
    )


class TestDifferentialSkipping:
    """Acceleration must be byte-for-byte invisible: the ray caster
    against the reference loop with skipping off, the isosurface with
    culling on vs off."""

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
        on = raycast_volume(volume, transfer, camera, 32, 24)
        off = _skipping_off(volume, transfer, camera, 32, 24)
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
        on = raycast_volume(volume, transfer, camera, 32, 24)
        off = _skipping_off(volume, transfer, camera, 32, 24)
        assert on.tobytes() == off.tobytes()

    def test_zero_opacity_short_circuit_matches_brute_force(self):
        volume = _blob_volume(12)
        camera = Camera.fit_bounds(volume.bounds())
        # window entirely above the data range: opacity support empty
        transfer = TransferFunction((5.0, 6.0), center=0.5, width=0.2)
        on = raycast_volume(volume, transfer, camera, 24, 18)
        off = _skipping_off(volume, transfer, camera, 24, 18)
        assert on.tobytes() == off.tobytes()

    def test_candidate_cells_cached_on_volume(self):
        volume = _blob_volume(12)
        first = candidate_cells(volume, 0.5, "blob")
        again = candidate_cells(volume, 0.5, "blob")
        assert first.shape == (11, 11, 11)
        # the pyramid behind the mask is cached per array
        assert volume.min_max_pyramid("blob") is volume.min_max_pyramid("blob")
        assert np.array_equal(first, again)
