"""The camera's scalar 3-vector arithmetic against the numpy it replaced.

``reference_camera`` holds the ``np.cross`` / ``np.allclose``
formulation.  The contract is bytes: every component of every vector
and every returned camera, signed zeros, subnormals and infinities
included; where NaN comes in, that the same components are NaN.
"""

import random

import numpy as np
import pytest

from repro.rendering import camera as cam_module
from repro.rendering.camera import Camera
from repro.util.errors import RenderingError
from tests.rendering import reference_camera as reference

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-308, 1e300, -1e300,
           float("inf"), float("-inf")]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _component(rng: random.Random, special: float) -> float:
    roll = rng.random()
    if roll < special:
        return rng.choice(SPECIAL)
    if roll < 0.5:
        return rng.uniform(-10.0, 10.0)
    return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-12, 12)


def _vector(rng: random.Random, special: float = 0.25):
    return [_component(rng, special) for _ in range(3)]


def _cross_pairs(seed: int, n: int, nan: bool):
    rng = random.Random(seed)
    for _ in range(n):
        a, b = _vector(rng), _vector(rng)
        if nan:
            (a if rng.random() < 0.5 else b)[rng.randrange(3)] = float("nan")
        yield a, b


@pytest.mark.parametrize("seed", range(4))
def test_cross_is_bitwise_np_cross(seed):
    for a, b in _cross_pairs(seed, 2000, nan=False):
        for x, y in ((a, b), (np.asarray(a), np.asarray(b)), (tuple(a), np.asarray(b))):
            got, expected = cam_module._cross(x, y), reference.cross(x, y)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert _bits(got) == _bits(expected), (a, b)


def test_cross_of_int_and_float_vectors_matches():
    rng = random.Random(7)
    for _ in range(500):
        a = [rng.randint(-1000, 1000) for _ in range(3)]
        b = _vector(rng, special=0.0)
        for x, y in ((a, b), (b, a), (np.asarray(a), np.asarray(b))):
            assert _bits(cam_module._cross(x, y)) == _bits(reference.cross(x, y))


@pytest.mark.parametrize("seed", range(2))
def test_cross_with_nan_inputs_agrees_on_nan(seed):
    for a, b in _cross_pairs(100 + seed, 2000, nan=True):
        got, expected = cam_module._cross(a, b), reference.cross(a, b)
        assert np.array_equal(np.isnan(got), np.isnan(expected)), (a, b)
        finite = ~np.isnan(expected)
        assert _bits(got[finite]) == _bits(expected[finite]), (a, b)


def _near(rng: random.Random, y: float) -> float:
    """A value on either side of ``np.isclose``'s tolerance around *y*."""
    tol = 1e-8 + 1e-5 * abs(y)
    return y + rng.choice([-1, 1]) * tol * rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])


POOL = SPECIAL + [float("nan"), 1.0, -1.0, 3, -7, 1e-8, 2e-8, 12.5]


@pytest.mark.parametrize("seed", range(4))
def test_coincidence_check_is_np_allclose(seed):
    rng = random.Random(seed)
    for _ in range(4000):
        b = [rng.choice(POOL) if rng.random() < 0.4 else _component(rng, 0.0)
             for _ in range(3)]
        a = []
        for y in b:
            roll = rng.random()
            if roll < 0.4:
                a.append(y)
            elif roll < 0.7 and np.isfinite(y):
                a.append(_near(rng, float(y)))
            else:
                a.append(rng.choice(POOL))
        for x, y in ((a, b), (b, a), (tuple(a), np.asarray(b, dtype=np.float64))):
            assert cam_module._coincide(x, y) == reference.coincide(x, y), (x, y)


@pytest.mark.parametrize("a, b, close", [
    ((np.inf, 0, 0), (np.inf, 0, 0), True),
    ((-np.inf, 1, 2), (-np.inf, 1, 2), True),
    ((1e308, 0, 0), (np.inf, 0, 0), False),
    ((np.inf, 0, 0), (1e308, 0, 0), False),
    ((np.inf, 0, 0), (-np.inf, 0, 0), False),
    ((np.nan, 0, 0), (np.nan, 0, 0), False),
    ((0.0, 0, 0), (-0.0, 0, 0), True),
    ((1.0, 2.0, 3.0), (1.0 + 1e-9, 2.0, 3.0), True),
])
def test_coincidence_of_non_finite_components(a, b, close):
    assert cam_module._coincide(a, b) is close
    assert reference.coincide(a, b) is close


def test_a_camera_on_its_focal_point_is_still_refused():
    with pytest.raises(RenderingError, match="coincides"):
        Camera(position=(1.0, 2.0, 3.0), focal_point=(1.0, 2.0, 3.0 + 1e-9))
    with pytest.raises(RenderingError, match="coincides"):
        Camera(position=(np.inf, 0.0, 0.0), focal_point=(np.inf, 0.0, 0.0))
    Camera(position=(np.nan, 0.0, 0.0), focal_point=(np.nan, 0.0, 0.0))  # as np.allclose


def _cameras(seed: int, n: int):
    rng = random.Random(seed)
    ups = [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, -1.0)]
    out = [
        Camera(),
        Camera.fit_bounds((0.0, 360.0, -90.0, 90.0, 0.0, 50.0)),
        Camera.fit_bounds((-1.0, 1.0, -1.0, 1.0, -1.0, 1.0), direction=(0.0, 0.0, -1.0)),
        # view_up parallel to the view direction: the fallback up hint
        Camera(position=(0.0, 0.0, 10.0), focal_point=(0.0, 0.0, 0.0), view_up=(0.0, 0.0, 1.0)),
        Camera(position=(1e-3, 0.0, 10.0), focal_point=(0.0, 0.0, 0.0), view_up=(0.0, 0.0, -2.0)),
        Camera(position=(3, -4, 5), focal_point=(0, 0, 0)),  # integer components
    ]
    while len(out) < n:
        pos = tuple(rng.uniform(-500.0, 500.0) for _ in range(3))
        foc = tuple(rng.uniform(-50.0, 50.0) for _ in range(3))
        up = rng.choice(ups) if rng.random() < 0.5 else tuple(rng.gauss(0, 1) for _ in range(3))
        try:
            out.append(Camera(position=pos, focal_point=foc, view_up=up,
                              fov_degrees=rng.uniform(10.0, 90.0)))
        except RenderingError:
            continue
    return out


def _assert_same_camera(got: Camera, expected: Camera):
    for name in ("position", "focal_point", "view_up"):
        assert _bits(getattr(got, name)) == _bits(getattr(expected, name)), name
    assert (got.fov_degrees, got.near, got.far) == (expected.fov_degrees, expected.near, expected.far)


ANGLES = [0.0, 15.0, -15.0, 30.0, 90.0, 179.9, 180.0, 345.0, 1e-7, -720.5]


@pytest.mark.parametrize("seed", range(3))
def test_basis_and_navigation_are_byte_equal_to_numpy(seed):
    rng = random.Random(1000 + seed)
    for camera in _cameras(seed, 60):
        expected = reference.basis(camera)
        got = camera.basis()
        assert [_bits(v) for v in got] == [_bits(v) for v in expected]
        for _ in range(4):
            az, el = rng.choice(ANGLES), rng.choice(ANGLES + [rng.uniform(-90, 90)])
            _assert_same_camera(camera.orbit(az, el), reference.orbit(camera, az, el))
            angle = rng.uniform(-180.0, 180.0)
            _assert_same_camera(camera.roll(angle), reference.roll(camera, angle))
            dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            _assert_same_camera(camera.pan(dx, dy), reference.pan(camera, dx, dy))
            fraction = rng.choice([0.03, 0.1, 0.0])
            for got_eye, expected_eye in zip(camera.stereo_pair(fraction),
                                             reference.stereo_pair(camera, fraction)):
                _assert_same_camera(got_eye, expected_eye)


def test_a_chain_of_orbits_stays_byte_equal():
    got = expected = Camera.fit_bounds((0.0, 16.0, 0.0, 10.0, 0.0, 5.0))
    for step in range(48):
        got = got.orbit(15.0, 2.5 if step % 3 else -7.0)
        expected = reference.orbit(expected, 15.0, 2.5 if step % 3 else -7.0)
        _assert_same_camera(got, expected)
