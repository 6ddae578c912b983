"""Differential caching tests: warm == cold, any perturbation == miss.

For every DV3D plot type and both regrid schemes, a warm-cache result
must be **byte identical** to the cold recompute; perturbing any single
upstream input — data, camera, transfer function, module parameter —
must change the key and recompute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cache import get_cache, reset_cache
from repro.cache.config import CacheConfig, use_config
from repro.dv3d.hovmoller import HovmollerSlicerPlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.volume import VolumePlot

WIDTH, HEIGHT = 64, 48

PLOT_TYPES = ["volume", "isosurface", "slicer", "vector_slicer", "hovmoller"]


def _build_plot(name, reanalysis, waves):
    if name == "volume":
        return VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
    if name == "isosurface":
        return IsosurfacePlot(reanalysis("ta"), color_variable=reanalysis("hus"))
    if name == "slicer":
        return SlicerPlot(reanalysis("ta"))
    if name == "vector_slicer":
        return VectorSlicerPlot(
            reanalysis("ua"), reanalysis("va"), mode="streamlines", seed_density=8
        )
    if name == "hovmoller":
        return HovmollerSlicerPlot(waves("olr_anom"))
    raise AssertionError(name)


@pytest.fixture()
def cache_on(tmp_path):
    cfg = CacheConfig(path=str(tmp_path / "cache"))
    reset_cache()
    with use_config(cfg):
        yield cfg
    reset_cache()


class TestWarmFramesAreByteIdentical:
    @pytest.mark.parametrize("name", PLOT_TYPES)
    def test_plot_type(self, name, reanalysis, waves, cache_on):
        plot = _build_plot(name, reanalysis, waves)
        camera = plot.default_camera()
        cold = plot.render(WIDTH, HEIGHT, camera=camera)
        stats = get_cache().stats()
        assert stats["misses"] >= 1 and stats["hits"] == 0
        warm = plot.render(WIDTH, HEIGHT, camera=camera)
        assert np.array_equal(cold.color, warm.color), f"{name}: warm color differs"
        assert np.array_equal(cold.depth, warm.depth), f"{name}: warm depth differs"
        assert np.array_equal(cold.to_uint8(), warm.to_uint8())
        stats = get_cache().stats()
        assert stats["hits"] >= 1, f"{name}: warm render did not hit the cache"

    @pytest.mark.parametrize("name", PLOT_TYPES)
    def test_warm_survives_a_fresh_process_view(self, name, reanalysis, waves, cache_on):
        # drop the in-memory tier between renders: the disk tier alone
        # must reproduce the frame byte for byte (what a new process sees)
        plot = _build_plot(name, reanalysis, waves)
        camera = plot.default_camera()
        cold = plot.render(WIDTH, HEIGHT, camera=camera)
        cache = get_cache()
        cache.memory.clear()
        warm = plot.render(WIDTH, HEIGHT, camera=camera)
        assert np.array_equal(cold.color, warm.color)
        assert np.array_equal(cold.depth, warm.depth)
        assert cache.stats()["hits"] >= 1

    def test_flipped_disk_entry_is_rerendered(self, reanalysis, cache_on):
        # one flipped byte in the frame's disk entry fails the digest
        # check: a miss and a re-render, never a frame with a wrong byte
        plot = VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
        camera = plot.default_camera()
        cold = plot.render(WIDTH, HEIGHT, camera=camera)
        cache = get_cache()
        [entry] = cache.disk.entries()
        stored = bytearray(entry.read_bytes())
        stored[len(stored) // 2] ^= 0xFF
        entry.chmod(0o644)
        entry.write_bytes(bytes(stored))
        cache.memory.clear()
        recorder = obs.enable(obs.Recorder())
        try:
            warm = plot.render(WIDTH, HEIGHT, camera=camera)
        finally:
            obs.disable()
        assert np.array_equal(cold.color, warm.color)
        assert np.array_equal(cold.depth, warm.depth)
        assert recorder.counter_total("cache.corrupt") == 1


class TestSingleInputPerturbationMisses:
    """Each case perturbs exactly one upstream input of a volume render."""

    def _misses(self):
        return get_cache().stats()["misses"]

    def test_data_perturbation(self, reanalysis, cache_on):
        from repro.cdms.variable import Variable

        ta = reanalysis("ta")
        plot = VolumePlot(ta, center=0.6, width=0.25)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()

        data = np.ma.copy(ta.data)
        data[..., 0, 0] = data[..., 0, 0] + 1e-3  # one corner, tiny delta
        perturbed = Variable(data, list(ta.axes), id=ta.id, units=ta.units)
        VolumePlot(perturbed, center=0.6, width=0.25).render(
            WIDTH, HEIGHT, camera=cam
        )
        assert self._misses() == baseline + 1

    def test_camera_perturbation(self, reanalysis, cache_on):
        plot = VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()
        plot.render(WIDTH, HEIGHT, camera=cam.orbit(0.5, 0.0))
        assert self._misses() == baseline + 1

    def test_transfer_function_perturbation(self, reanalysis, cache_on):
        ta = reanalysis("ta")
        plot = VolumePlot(ta, center=0.6, width=0.25)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()
        VolumePlot(ta, center=0.62, width=0.25).render(WIDTH, HEIGHT, camera=cam)
        assert self._misses() == baseline + 1

    def test_module_parameter_perturbation(self, reanalysis, cache_on):
        ta = reanalysis("ta")
        plot = SlicerPlot(ta)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()
        plot.handle_key("x")  # toggle a slice plane: a module-level knob
        plot.render(WIDTH, HEIGHT, camera=cam)
        assert self._misses() == baseline + 1

    def test_size_perturbation(self, reanalysis, cache_on):
        plot = VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()
        plot.render(WIDTH + 2, HEIGHT, camera=cam)
        assert self._misses() == baseline + 1

    def test_unperturbed_control(self, reanalysis, cache_on):
        # the control arm: no perturbation, no miss
        plot = VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
        cam = plot.default_camera()
        plot.render(WIDTH, HEIGHT, camera=cam)
        baseline = self._misses()
        plot.render(WIDTH, HEIGHT, camera=cam)
        assert self._misses() == baseline


class TestRegridDifferential:
    @pytest.fixture()
    def grids(self, simple_variable):
        from repro.cdms.axis import uniform_latitude, uniform_longitude
        from repro.cdms.grid import RectilinearGrid

        target = RectilinearGrid(uniform_latitude(6), uniform_longitude(9))
        return simple_variable, target

    @pytest.mark.parametrize("scheme", ["bilinear", "conservative"])
    def test_warm_regrid_is_byte_identical(self, scheme, grids, cache_on):
        from repro.cdms import regrid as rg

        var, target = grids
        fn = rg.regrid_bilinear if scheme == "bilinear" else rg.regrid_conservative
        cold = fn(var, target)
        warm = fn(var, target)
        assert np.array_equal(
            np.ma.getdata(cold.data), np.ma.getdata(warm.data)
        ), f"{scheme}: warm payload differs"
        assert np.array_equal(
            np.ma.getmaskarray(cold.data), np.ma.getmaskarray(warm.data)
        )
        stats = get_cache().stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_scheme_partitions_keys(self, grids, cache_on):
        from repro.cdms import regrid as rg

        var, target = grids
        rg.regrid_bilinear(var, target)
        rg.regrid_conservative(var, target)
        assert get_cache().stats()["misses"] == 2

    def test_data_perturbation_misses(self, grids, cache_on):
        from repro.cdms import regrid as rg
        from repro.cdms.variable import Variable

        var, target = grids
        rg.regrid_bilinear(var, target)
        data = np.ma.copy(var.data)
        data[0, 0, 1, 1] = data[0, 0, 1, 1] + 1e-6
        other = Variable(data, list(var.axes), id=var.id, units=var.units)
        rg.regrid_bilinear(other, target)
        assert get_cache().stats()["misses"] == 2

    def test_target_grid_perturbation_misses(self, grids, cache_on):
        from repro.cdms import regrid as rg
        from repro.cdms.axis import uniform_latitude, uniform_longitude
        from repro.cdms.grid import RectilinearGrid

        var, target = grids
        rg.regrid_bilinear(var, target)
        other = RectilinearGrid(uniform_latitude(7), uniform_longitude(9))
        rg.regrid_bilinear(var, other)
        assert get_cache().stats()["misses"] == 2
