"""Registry metadata, error hygiene, and the uncached ``apply_cached``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdat.registry import OperationRegistry, default_registry
from repro.cdms.axis import latitude_axis, longitude_axis, time_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def make_variable(seed=9):
    rng = np.random.default_rng(seed)
    data = np.ma.MaskedArray(rng.normal(280.0, 5.0, size=(6, 3, 4)))
    axes = (
        time_axis(np.arange(6) * 30.0 + 15.0, calendar="noleap"),
        latitude_axis([-10.0, 0.0, 10.0]),
        longitude_axis([0.0, 90.0, 180.0, 270.0]),
    )
    return Variable(data, axes, id="ta", units="K")


class TestErrorHygiene:
    def test_unknown_operation_raises_without_chained_context(self):
        """The KeyError lookup must not leak into the user-facing error."""
        with pytest.raises(CDATError) as excinfo:
            default_registry().get("no_such_operation")
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__

    def test_unknown_operation_lists_available_names(self):
        with pytest.raises(CDATError, match="available"):
            default_registry().get("no_such_operation")


class TestStreamingMetadata:
    def test_reductions_are_marked_streaming(self):
        reg = default_registry()
        streaming = set(reg.streaming_names())
        assert {"monthly_climatology", "zonal_mean", "running_mean",
                "variance", "compare_where"} <= streaming
        # the documented exceptions stay unmarked
        assert "percentile" not in streaming
        assert "add" not in streaming

    def test_register_default_is_not_streaming(self):
        reg = OperationRegistry()
        op = reg.register("f", lambda v: v)
        assert op.streaming is False
        op2 = reg.register("g", lambda v: v, streaming=True)
        assert op2.streaming is True
        assert reg.streaming_names() == ["g"]


class TestApplyCached:
    def test_disabled_cache_is_passthrough(self):
        """``apply_cached`` is ``apply``: no memo, every call computes."""
        assert OperationRegistry.apply_cached is OperationRegistry.apply
        calls = []
        reg = OperationRegistry()
        reg.register("probe", lambda v: calls.append(1) or v)
        var = make_variable()
        reg.apply_cached("probe", var)
        reg.apply_cached("probe", var)
        assert len(calls) == 2
