"""The Volume plot keeps its view's ray bundle.

On a time step the camera, the frame size and the volume's bounds stay,
so ``raycast_volume`` takes the rays that enter the volume box, their
directions, entry and exit and depth cosines from a ``raycast.rays``
:class:`~repro.util.kept.Kept` on the plot, keyed by (camera object,
(width, height, bounds)).  The occupied-box clip, the depth clip and the
march stay per frame: a kept bundle draws the frame that ``rays=None``
and the one-step loop draw, byte for byte.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.dv3d.volume import VolumePlot
from repro.rendering import raycast
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.transfer_function import TransferFunction
from repro.util.kept import Kept, same_first
from tests.rendering import reference_raycast as reference
from tests.rendering.test_raycast_differential import _cast


@pytest.fixture()
def pixel_rays(monkeypatch):
    """Counts ``Camera.pixel_rays`` calls."""
    calls = []
    original = Camera.pixel_rays

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Camera, "pixel_rays", counted)
    return calls


def _rays_counts(rec):
    return (rec.counter_value("raycast.rays.hits", plot="volume"),
            rec.counter_value("raycast.rays.misses", plot="volume"))


def test_a_warm_time_step_sets_up_no_rays(ta, pixel_rays):
    plot = VolumePlot(ta)
    camera = plot.default_camera()
    plot.render(64, 48, camera)
    assert len(pixel_rays) == 1
    plot.step_time()
    with obs.recording() as rec:
        plot.render(64, 48, camera)
    assert len(pixel_rays) == 1
    assert _rays_counts(rec) == (1, 0)


@pytest.mark.parametrize("change", ["new camera", "equal camera", "new size", "new bounds"])
def test_a_changed_view_sets_up_its_rays_again(ta, pixel_rays, change):
    plot = VolumePlot(ta)
    camera, size = plot.default_camera(), (64, 48)
    plot.render(*size, camera)
    if change == "new camera":
        camera = camera.orbit(30.0, 0.0)
    elif change == "equal camera":  # identity, not equality, keeps the rays
        twin = dataclasses.replace(camera)
        assert twin == camera and twin is not camera
        camera = twin
    elif change == "new size":
        size = (80, 60)
    else:
        bounds = plot.volume.bounds()
        plot.set_vertical_exaggeration(2.0 * (bounds[5] - bounds[4]))
        assert plot.volume.bounds() != bounds
    with obs.recording() as rec:
        plot.render(*size, camera)
    assert len(pixel_rays) == 2
    assert _rays_counts(rec) == (0, 1)


def test_the_kept_arrays_are_read_only(ta):
    plot = VolumePlot(ta)
    plot.render(64, 48)
    (actor,) = plot.scene().volume_actors
    position, ids, dirs, t_enter, t_exit, cos = actor.rays.value
    assert position.shape == (3,) and dirs.shape == (3, ids.size)
    assert dirs.flags.c_contiguous
    for array in (position, ids, dirs, t_enter, t_exit, cos):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        t_exit[0] = 0.0


def _volume(seed):
    dims = (9, 7, 6)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=dims)
    values[rng.random(dims) < 0.1] = np.nan
    volume = ImageData(dims, origin=(-1.0, 0.5, 2.0), spacing=(1.0, 0.5, 1.7))
    volume.add_array("f", values)
    return volume


CASES = {
    "outside": lambda v: Camera.fit_bounds(v.bounds()).orbit(35.0, 15.0),
    "inside": lambda v: Camera(position=tuple(v.center()),
                               focal_point=tuple(v.center() + (1.0, 0.3, -0.2)),
                               view_up=(0.3, 0.4, 0.87)),
}


@pytest.mark.parametrize("lighting", [True, False])
@pytest.mark.parametrize("peak", [0.0, 0.8])  # 0: the opacity support is empty
@pytest.mark.parametrize("case", sorted(CASES))
def test_frames_from_a_kept_bundle_equal_fresh_frames_and_the_loop(case, peak, lighting):
    """One bundle over a time step: a new volume with the same bounds and
    a new depth buffer each frame (none, then a pre-filled one)."""
    first, second = _volume(1), _volume(2)
    assert first.bounds() == second.bounds()
    transfer = TransferFunction((-2.0, 2.0), center=0.6, width=0.5, peak_opacity=peak)
    camera = CASES[case](first)
    width, height = 33, 17
    depth = np.random.default_rng(3).choice(
        [0.5, 4.0, 9.0, 20.0, np.inf], size=(height, width)).astype(np.float32)
    kept = Kept("raycast.rays", same_first)
    bundles = []
    for volume, depth_limit in ((first, None), (second, depth)):
        args = (volume, transfer, camera, width, height)
        kwargs = dict(depth_limit=depth_limit, lighting=lighting)
        want = _cast(reference.raycast_volume, *args, **kwargs)
        fresh = _cast(raycast.raycast_volume, *args, rays=None, **kwargs)
        got = _cast(raycast.raycast_volume, *args, rays=kept, **kwargs)
        assert got[0].tobytes() == fresh[0].tobytes() == want[0].tobytes()
        assert got[1:] == fresh[1:] == want[1:]
        assert (got[1]["raycast.samples"] > 0) == (peak > 0)
        bundles.append(kept.value)
    assert bundles[1] is bundles[0]  # the second frame drew from the first's rays
