"""Ablation — vectorized ray casting vs a naive per-ray Python loop.

The session coding guides demand vectorized inner loops; this ablation
quantifies why.  The production ray caster marches all active rays a
block of steps at a time, with one ``map_coordinates`` call per block;
the reference implementation below is the textbook per-ray loop.  Both
produce the same image (asserted), at wildly different cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.raycast import _ray_box_intersection, raycast_volume
from repro.rendering.transfer_function import TransferFunction


def make_volume(n: int = 28) -> ImageData:
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("d", np.exp(-3 * (X**2 + Y**2 + Z**2)))
    return vol


def naive_raycast(volume, transfer, camera, width, height, step):
    """Per-ray Python loop (the ablated implementation)."""
    origins, dirs = camera.pixel_rays(width, height)
    t_enter, t_exit = _ray_box_intersection(origins, dirs, volume.bounds())
    t_enter = np.maximum(t_enter, camera.near)
    out = np.zeros((width * height, 4), dtype=np.float64)
    reference_step = float(min(volume.spacing))
    for ray in range(origins.shape[0]):
        if t_enter[ray] >= t_exit[ray]:
            continue
        color = np.zeros(3)
        transmittance = 1.0
        t = t_enter[ray]
        while t < t_exit[ray] and transmittance > 5e-3:
            point = origins[ray] + dirs[ray] * t
            sample = volume.sample(point.reshape(1, 3))
            rgb, alpha = transfer.evaluate(sample)
            alpha = 1.0 - (1.0 - np.clip(alpha[0], 0.0, 0.999)) ** (step / reference_step)
            color += transmittance * alpha * rgb[0]
            transmittance *= 1.0 - alpha
            t += step
        out[ray, :3] = color
        out[ray, 3] = 1.0 - transmittance
    return out.reshape(height, width, 4).astype(np.float32)


@pytest.fixture(scope="module")
def setup():
    volume = make_volume()
    transfer = TransferFunction(volume.scalar_range(), center=0.8, width=0.4)
    camera = Camera.fit_bounds(volume.bounds())
    return volume, transfer, camera


def test_ablation_raycast_vectorized(benchmark, setup):
    volume, transfer, camera = setup
    benchmark.group = "ablation-raycast"
    rgba = benchmark(lambda: raycast_volume(volume, transfer, camera, 48, 36,
                                            step_size=0.05, lighting=False))
    assert rgba[18, 24, 3] > 0.1


def test_ablation_raycast_naive(benchmark, setup):
    volume, transfer, camera = setup
    benchmark.group = "ablation-raycast"
    rgba = benchmark.pedantic(
        lambda: naive_raycast(volume, transfer, camera, 48, 36, step=0.05),
        rounds=1, iterations=1,
    )
    assert rgba[18, 24, 3] > 0.1


def test_ablation_raycast_equivalence(setup):
    """Both implementations composite to (nearly) the same image."""
    volume, transfer, camera = setup
    fast = raycast_volume(volume, transfer, camera, 24, 18, step_size=0.05,
                          lighting=False)
    slow = naive_raycast(volume, transfer, camera, 24, 18, step=0.05)
    max_diff = float(np.abs(fast - slow).max())
    report("Ablation: raycast implementations agree",
           [("max |vectorized - naive|", f"{max_diff:.4f}")])
    assert max_diff < 0.06
