"""Axes: designation, bounds, interval mapping, weights, subsetting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.keys import digest
from repro.cdms.axis import (
    Axis,
    latitude_axis,
    level_axis,
    longitude_axis,
    time_axis,
    uniform_latitude,
    uniform_longitude,
)
from repro.util.errors import CDMSError


class TestConstruction:
    def test_values_are_readonly(self):
        axis = Axis("x", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            axis.values[0] = 99.0

    def test_rejects_non_monotonic(self):
        with pytest.raises(CDMSError):
            Axis("x", [1.0, 3.0, 2.0])

    def test_rejects_duplicates(self):
        with pytest.raises(CDMSError):
            Axis("x", [1.0, 1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(CDMSError):
            Axis("x", [])

    def test_rejects_2d(self):
        with pytest.raises(CDMSError):
            Axis("x", np.zeros((2, 2)))

    def test_decreasing_allowed(self):
        axis = Axis("plev", [1000.0, 500.0, 100.0])
        assert not axis.increasing

    def test_equality_and_hash(self):
        a = latitude_axis([0.0, 10.0])
        b = latitude_axis([0.0, 10.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != latitude_axis([0.0, 20.0])


class TestDesignation:
    def test_latitude_by_units(self):
        assert Axis("whatever", [0.0], units="degrees_north").is_latitude()

    def test_longitude_by_id(self):
        assert Axis("lon", [0.0]).is_longitude()

    def test_level_by_units(self):
        assert Axis("p", [1000.0], units="hPa").is_level()

    def test_time_by_units(self):
        assert Axis("t", [0.0], units="days since 1979-01-01").is_time()

    def test_axis_attribute_wins(self):
        axis = Axis("strange", [0.0], attributes={"axis": "Z"})
        assert axis.designation() == "level"

    def test_other(self):
        assert Axis("member", [0.0, 1.0]).designation() == "other"

    @pytest.mark.parametrize(
        "factory,designation",
        [
            (lambda: latitude_axis([0.0]), "latitude"),
            (lambda: longitude_axis([0.0]), "longitude"),
            (lambda: level_axis([1000.0]), "level"),
            (lambda: time_axis([0.0]), "time"),
        ],
    )
    def test_factories(self, factory, designation):
        assert factory().designation() == designation


class TestBounds:
    def test_gen_bounds_contiguous(self):
        axis = Axis("x", [0.0, 1.0, 2.0, 4.0])
        bounds = axis.gen_bounds()
        assert bounds.shape == (4, 2)
        # adjacent cells share an edge
        np.testing.assert_allclose(bounds[:-1, 1], bounds[1:, 0])

    def test_gen_bounds_cover_values(self):
        axis = Axis("x", [0.0, 1.0, 3.0])
        bounds = axis.gen_bounds()
        assert np.all(bounds[:, 0] <= axis.values)
        assert np.all(axis.values <= bounds[:, 1])

    def test_latitude_bounds_clipped_to_poles(self):
        axis = uniform_latitude(4)
        bounds = axis.gen_bounds()
        assert bounds.min() >= -90.0 and bounds.max() <= 90.0

    def test_explicit_bounds_shape_checked(self):
        axis = Axis("x", [0.0, 1.0])
        with pytest.raises(CDMSError):
            axis.set_bounds(np.zeros((3, 2)))

    def test_cell_widths(self):
        axis = Axis("x", [0.0, 1.0, 2.0])
        np.testing.assert_allclose(axis.cell_widths(), [1.0, 1.0, 1.0])


class TestIntervalMapping:
    def test_map_interval_basic(self):
        axis = Axis("x", np.arange(10.0))
        assert axis.map_interval(2.0, 5.0) == (2, 6)

    def test_map_interval_reversed_arguments(self):
        axis = Axis("x", np.arange(10.0))
        assert axis.map_interval(5.0, 2.0) == (2, 6)

    def test_map_interval_empty_raises(self):
        axis = Axis("x", np.arange(10.0))
        with pytest.raises(CDMSError):
            axis.map_interval(100.0, 200.0)

    def test_map_interval_time_strings(self):
        axis = time_axis(np.arange(0, 365, 30.0))
        i0, i1 = axis.map_interval("1979-02-01", "1979-04-01")
        selected = axis.values[i0:i1]
        assert selected.min() >= 31 and selected.max() <= 91

    def test_nearest_index(self):
        axis = Axis("x", [0.0, 10.0, 20.0])
        assert axis.nearest_index(12.0) == 1
        assert axis.nearest_index(16.0) == 2

    def test_coerce_rejects_time_string_on_plain_axis(self):
        with pytest.raises(CDMSError):
            Axis("x", [0.0, 1.0]).map_interval("1979-01-01", "1979-02-01")


class TestSubsetting:
    def test_slice_preserves_metadata(self):
        axis = time_axis(np.arange(12) * 30.0, calendar="noleap")
        sub = axis.subaxis_slice(slice(2, 5))
        assert len(sub) == 3
        assert sub.calendar.name == "noleap"
        assert sub.units == axis.units

    def test_slice_slices_bounds(self):
        axis = Axis("x", np.arange(5.0))
        axis.gen_bounds()
        sub = axis.subaxis_slice(slice(1, 3))
        np.testing.assert_allclose(sub.get_bounds(), axis.gen_bounds()[1:3])

    def test_a_slices_bounds_do_not_depend_on_history(self):
        """The same slice of two equal axes is equal whether or not the
        parent's bounds were generated first: it takes the parent's
        bounds, which know the neighbours the slice cut off."""
        fresh = Axis("x", [0.0, 1.0, 3.0, 7.0])
        seen = Axis("x", [0.0, 1.0, 3.0, 7.0])
        digest(seen)  # generates, and keeps, the parent's bounds
        sub_fresh = fresh.subaxis_slice(slice(1, 3))
        sub_seen = seen.subaxis_slice(slice(1, 3))
        np.testing.assert_array_equal(sub_fresh.gen_bounds(), [[0.5, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(sub_fresh.gen_bounds(), sub_seen.gen_bounds())
        assert digest(sub_fresh) == digest(sub_seen)

    def test_empty_slice_raises(self):
        with pytest.raises(CDMSError):
            Axis("x", np.arange(5.0)).subaxis_slice(slice(4, 2))

    def test_clone_is_independent(self):
        axis = latitude_axis([0.0, 10.0])
        clone = axis.clone()
        clone.attributes["note"] = "changed"
        assert "note" not in axis.attributes

    def test_getitem(self):
        axis = Axis("x", [1.0, 2.0, 3.0])
        assert axis[1] == 2.0
        assert isinstance(axis[0:2], Axis)


class TestWeights:
    def test_latitude_weights_sum_to_one(self):
        weights = uniform_latitude(32).area_weights()
        assert weights.sum() == pytest.approx(1.0)

    def test_latitude_weights_peak_at_equator(self):
        axis = uniform_latitude(18)
        weights = axis.area_weights()
        assert np.argmax(weights) in (8, 9)

    def test_longitude_weights_uniform(self):
        weights = uniform_longitude(12).area_weights()
        np.testing.assert_allclose(weights, 1.0 / 12)

    def test_uniform_latitude_exact_sphere(self):
        # sum of sin-differences over a full sphere is exactly 2
        axis = uniform_latitude(10)
        bounds = np.radians(axis.gen_bounds())
        total = np.abs(np.sin(bounds[:, 1]) - np.sin(bounds[:, 0])).sum()
        assert total == pytest.approx(2.0)


class TestTimeConversion:
    def test_as_component_time(self):
        axis = time_axis([0.0, 31.0], units="days since 1979-01-01")
        comps = axis.as_component_time()
        assert comps[0].month == 1 and comps[1].month == 2

    def test_as_component_time_requires_time_axis(self):
        with pytest.raises(CDMSError):
            latitude_axis([0.0]).as_component_time()


@given(st.integers(min_value=2, max_value=200))
def test_uniform_latitude_weights_property(n):
    weights = uniform_latitude(n).area_weights()
    assert weights.shape == (n,)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)
    # symmetric about the equator
    np.testing.assert_allclose(weights, weights[::-1], atol=1e-12)
