"""Serial vs parallel kernel equivalence, with real worker processes.

The pooled kernel (streamlines) promises *bitwise identical* output at
any worker count.  Rasterization, ray casting, isosurface extraction
and regridding have no pool variant: under an enabled config they must
start no pool run and return the serial bytes.  The ambient-config
wiring through ``Renderer`` / ``Plot3D`` / ``Executor`` is covered here
too.
"""

import numpy as np
import pytest

from repro import obs
from repro.parallel import ParallelConfig, use_config
from repro.parallel.kernels import parallel_integrate_streamlines
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.isosurface import marching_tetrahedra
from repro.rendering.raycast import raycast_rows, raycast_volume
from repro.rendering.streamline import integrate_streamlines, plane_seed_grid
from repro.rendering.transfer_function import TransferFunction

pytestmark = pytest.mark.skipif(
    not ParallelConfig(workers=2).enabled,
    reason="POSIX shared memory unavailable",
)

CFG = ParallelConfig(workers=4, min_items=1, timeout=120.0)


@pytest.fixture(scope="module")
def volume():
    rng = np.random.default_rng(11)
    vol = ImageData((12, 13, 9), spacing=(1.0, 1.2, 0.8))
    vol.add_array("f", rng.normal(size=(12, 13, 9)))
    vol.add_array("wind", rng.normal(size=(12, 13, 9, 3)), set_active=False)
    return vol


@pytest.fixture(scope="module")
def camera(volume):
    return Camera.fit_bounds(volume.bounds())


@pytest.fixture(scope="module")
def transfer():
    return TransferFunction((-2.5, 2.5), center=0.6, width=0.5)


def _pool_run_kernels(recorder):
    """The kernel label of every pool run *recorder* saw."""
    return {s.attrs["kernel"] for s in recorder.spans if s.name == "parallel.run"}


class TestRaycast:
    def test_row_band_equals_full_frame_slice(self, volume, camera, transfer):
        """Any band of :func:`raycast_rows` is a slice of the full frame."""
        full = raycast_volume(volume, transfer, camera, 40, 30, array_name="f")
        for row0, row1 in [(0, 7), (7, 19), (19, 30)]:
            band = raycast_rows(
                volume, transfer, camera, 40, 30, row0, row1, array_name="f"
            )
            assert np.array_equal(band, full[row0:row1])


class TestIsosurface:
    def test_ambient_config_dispatch(self, volume):
        """No pool variant: an enabled ambient config changes nothing."""
        serial = marching_tetrahedra(volume, 0.0, "f")
        with obs.recording() as recorder, use_config(CFG):
            ambient = marching_tetrahedra(volume, 0.0, "f")
        assert not _pool_run_kernels(recorder)
        assert np.array_equal(serial.points, ambient.points)
        assert np.array_equal(serial.triangles, ambient.triangles)


class TestStreamlines:
    def test_identical_lines(self, volume):
        seeds = plane_seed_grid(volume, 2, 3.0, 6, 6)
        serial = integrate_streamlines(volume, "wind", seeds, max_steps=40)
        par = parallel_integrate_streamlines(
            volume, "wind", seeds, max_steps=40, config=CFG
        )
        assert len(par) == len(serial)
        for a, b in zip(serial, par):
            assert np.array_equal(a, b)

    def test_bidirectional(self, volume):
        seeds = plane_seed_grid(volume, 2, 3.0, 4, 4)
        serial = integrate_streamlines(
            volume, "wind", seeds, max_steps=25, bidirectional=True
        )
        par = parallel_integrate_streamlines(
            volume, "wind", seeds, max_steps=25, bidirectional=True, config=CFG
        )
        assert len(par) == len(serial)
        for a, b in zip(serial, par):
            assert np.array_equal(a, b)


class TestRegrid:
    def _field(self, nlat=36, nlon=72):
        from repro.cdms.grid import uniform_grid
        from repro.cdms.variable import Variable

        grid = uniform_grid(nlat, nlon)
        lat = np.radians(grid.latitude.values)
        lon = np.radians(grid.longitude.values)
        data = (
            280.0
            + 20.0 * np.outer(np.cos(lat), np.ones(nlon))
            + 3.0 * np.outer(np.ones(nlat), np.sin(2 * lon))
        )
        arr = np.ma.MaskedArray(data)
        arr[5:9, 10:20] = np.ma.masked
        return Variable(arr, (grid.latitude, grid.longitude), id="f", units="K")

    def test_ambient_config_is_serial_and_exact(self):
        """One regrid implementation: no pool run, the serial bytes."""
        from repro.cdms.grid import uniform_grid
        from repro.cdms.regrid import regrid_bilinear, regrid_conservative

        src = self._field()
        target = uniform_grid(46, 72)
        for regrid in (regrid_bilinear, regrid_conservative):
            serial = regrid(src, target)
            with obs.recording() as recorder, use_config(CFG):
                ambient = regrid(src, target)
            assert not _pool_run_kernels(recorder)
            assert np.array_equal(
                np.ma.getmaskarray(serial.data), np.ma.getmaskarray(ambient.data)
            )
            assert np.array_equal(
                np.ma.getdata(serial.data), np.ma.getdata(ambient.data)
            )


class TestWiring:
    def test_renderer_ambient_config(self, volume, camera, transfer):
        """Renderer has one path: an enabled ambient config changes nothing."""
        from repro.rendering.scene import Actor, Renderer, Scene, VolumeActor

        scene = Scene()
        scene.add_actor(Actor(marching_tetrahedra(volume, 0.1, "f")))
        scene.add_volume(VolumeActor(volume=volume, transfer=transfer, array_name="f"))
        serial_fb = Renderer(40, 30).render(scene, camera)
        with obs.recording() as recorder, use_config(CFG):
            ambient_fb = Renderer(40, 30).render(scene, camera)
        assert not _pool_run_kernels(recorder)
        assert np.array_equal(serial_fb.color, ambient_fb.color)
        assert np.array_equal(serial_fb.depth, ambient_fb.depth)

    def test_executor_parallel_config(self, cell_pipeline):
        """Executor(parallel=...) installs the config around execution."""
        from repro.workflow.executor import Executor

        pipeline, ids = cell_pipeline
        serial_result = Executor(caching=False).execute(pipeline)
        par_result = Executor(
            caching=False, parallel=ParallelConfig(workers=2, min_items=1, timeout=300.0)
        ).execute(pipeline)
        serial_img = serial_result.output(ids["cell"], "image")
        par_img = par_result.output(ids["cell"], "image")
        assert np.array_equal(serial_img, par_img)

    def test_only_surviving_kernels_reach_the_pool(self, reanalysis):
        """Volume, Isosurface and streamline renders and a regrid under
        an enabled config: the pool sees streamline runs and nothing
        else, and every result equals the serial one."""
        from repro.cdms.grid import uniform_grid
        from repro.cdms.regrid import regrid_conservative
        from repro.dv3d.isosurface import IsosurfacePlot
        from repro.dv3d.vector_slicer import VectorSlicerPlot
        from repro.dv3d.volume import VolumePlot

        def frames_and_regrid():
            plots = [
                VolumePlot(reanalysis("ta"), center=0.6, width=0.25),
                IsosurfacePlot(reanalysis("ta"), color_variable=reanalysis("hus")),
                VectorSlicerPlot(
                    reanalysis("ua"), reanalysis("va"), mode="streamlines", seed_density=8
                ),
            ]
            frames = [plot.render(64, 48) for plot in plots]
            regridded = regrid_conservative(
                reanalysis("ta")[0], uniform_grid(12, 18)
            )
            return frames, regridded

        serial_frames, serial_regrid = frames_and_regrid()
        cfg = ParallelConfig(workers=2, min_items=1, timeout=300.0)
        with obs.recording() as recorder, use_config(cfg):
            pool_frames, pool_regrid = frames_and_regrid()
        kernels = _pool_run_kernels(recorder)
        assert kernels == {"streamline"}
        for serial_fb, pool_fb in zip(serial_frames, pool_frames):
            assert np.array_equal(serial_fb.color, pool_fb.color)
            assert np.array_equal(serial_fb.depth, pool_fb.depth)
        assert np.array_equal(
            np.ma.getdata(serial_regrid.data), np.ma.getdata(pool_regrid.data)
        )
