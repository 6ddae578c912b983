"""A plot keeps the last orbit of a camera: (camera, azimuth, elevation)
→ the orbited camera, one entry per plot.

Hits are bit-identical to ``Camera.orbit`` — a repeat gets the very
camera it got before, and angles that differ only in sign of zero or in
type are not mistaken for each other.  The entry lives on the plot, so
a chain of orbits (each camera the orbit of the one before) keeps O(1)
cameras alive however long it runs.
"""

from __future__ import annotations

import gc
import random
import struct
import weakref

import numpy as np

from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.view import View


def bits(camera):
    values = camera.position + camera.focal_point + camera.view_up + (
        camera.fov_degrees, camera.near, camera.far)
    return struct.pack(f"<{len(values)}d", *values), tuple(map(type, values))


def test_a_kept_orbit_is_the_orbit_bit_for_bit(ta):
    plot = SlicerPlot(ta)
    base = plot.default_camera()
    rng = random.Random(7)
    angles = [0.0, -0.0, 30.0, -40.0, 97.5, 1e-300, -1e-300]
    for _ in range(200):
        camera = base if rng.random() < 0.7 else base.orbit(rng.choice(angles), 0.0)
        azimuth, elevation = rng.choice(angles), rng.choice(angles)
        kept = plot.orbit(camera, azimuth, elevation)
        assert bits(kept) == bits(camera.orbit(azimuth, elevation)), (azimuth, elevation)


def test_a_repeat_gets_the_same_camera_and_a_new_angle_a_new_one(ta):
    plot = SlicerPlot(ta)
    base = plot.default_camera()
    first = plot.orbit(base, 45.0, 0.0)
    assert plot.orbit(base, 45.0, 0.0) is first
    assert plot.orbit(base, np.float32(45.0), 0.0) is not first  # another type
    assert plot.orbit(base, 0.0, 0.0) is not plot.orbit(base, -0.0, 0.0)
    assert plot.orbit(base.orbit(0.0, 0.0), 45.0, 0.0) is not first  # another camera


def test_a_view_redraw_reorbits_nothing(ta, monkeypatch):
    plot = SlicerPlot(ta)
    view = View(16, 12, time_index=1, azimuth=30.0)
    frame = view.draw(plot)
    calls = []
    orbit = type(plot.default_camera()).orbit
    monkeypatch.setattr(type(plot.default_camera()), "orbit",
                        lambda self, *a: calls.append(a) or orbit(self, *a))
    again = view.draw(plot)
    assert calls == []
    assert again.to_uint8().tobytes() == frame.to_uint8().tobytes()


def test_an_orbit_chain_keeps_o1_cameras_alive(ta):
    """Each step orbits the camera the last step made, as a drag does;
    a memo kept on the cameras would chain all 1000 to the first."""
    plot = SlicerPlot(ta)
    camera = plot.default_camera()
    refs = []
    for _ in range(1000):
        refs.append(weakref.ref(camera))
        camera = plot.orbit(camera, 3.0, 1.0)
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 3


def test_drawn_orbit_chain_keeps_o1_cameras_alive(ta):
    plot = SlicerPlot(ta)
    refs = []
    for _ in range(100):
        plot.camera = plot.resolve_camera().orbit(5.0, 0.0)  # a drag
        refs.append(weakref.ref(plot.camera))
        View(8, 6, azimuth=10.0).draw(plot)
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 3
