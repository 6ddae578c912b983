"""The named-operation registry.

UV-CDAT's GUI exposes "tools for executing data processing and analysis
operations on variables using either a command-line or calculator
interface" (§III.E).  Both interfaces, and the generic ``CDATOperation``
workflow module, resolve operations by name from this registry.  Each
entry records its callable, a one-line description, and its arity so the
calculator can validate expressions before execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.util.errors import CDATError


@dataclass(frozen=True)
class Operation:
    """A registered analysis operation."""

    name: str
    func: Callable
    description: str
    n_variables: int  # how many Variable positional arguments it takes
    #: True when the operation consumes streamed variables slab by slab
    #: (bounded memory) instead of materializing them; see repro.cdms.slabs
    streaming: bool = False

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)


class OperationRegistry:
    """A name → :class:`Operation` mapping with introspection helpers."""

    def __init__(self) -> None:
        self._operations: Dict[str, Operation] = {}

    def register(
        self,
        name: str,
        func: Callable,
        description: str = "",
        n_variables: int = 1,
        overwrite: bool = False,
        streaming: bool = False,
    ) -> Operation:
        if name in self._operations and not overwrite:
            raise CDATError(f"operation {name!r} already registered")
        if not description:
            doc = (func.__doc__ or "").strip()
            description = doc.splitlines()[0] if doc else ""
        op = Operation(name, func, description, n_variables, streaming)
        self._operations[name] = op
        return op

    def get(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise CDATError(
                f"unknown operation {name!r}; available: {sorted(self._operations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def names(self) -> List[str]:
        return sorted(self._operations)

    def streaming_names(self) -> List[str]:
        """Names of operations that process streamed inputs slab by slab."""
        return sorted(n for n, op in self._operations.items() if op.streaming)

    def describe(self) -> Dict[str, str]:
        return {name: op.description for name, op in sorted(self._operations.items())}

    def apply(self, name: str, *args, **kwargs):
        return self.get(name)(*args, **kwargs)

    #: the name the calculator and ``CDATOperation`` call; kept so both
    #: spellings resolve to one path
    apply_cached = apply


_DEFAULT: Optional[OperationRegistry] = None


def default_registry() -> OperationRegistry:
    """The process-wide registry, populated with the full CDAT suite."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = OperationRegistry()
        _populate(_DEFAULT)
    return _DEFAULT


def register_operation(
    name: str, description: str = "", n_variables: int = 1
) -> Callable[[Callable], Callable]:
    """Decorator registering a user-defined operation in the default registry."""

    def wrap(func: Callable) -> Callable:
        default_registry().register(name, func, description, n_variables)
        return func

    return wrap


def _populate(reg: OperationRegistry) -> None:
    # imported here to avoid a circular import at package-load time
    from repro.cdat import arithmetic, averages, climatology, conditioned, statistics, vertical

    reg.register("add", arithmetic.add, "elementwise sum of two variables", 2)
    reg.register("subtract", arithmetic.subtract, "elementwise difference of two variables", 2)
    reg.register("multiply", arithmetic.multiply, "elementwise product of two variables", 2)
    reg.register("divide", arithmetic.divide, "elementwise (masked) quotient of two variables", 2)
    reg.register("power", arithmetic.power, "raise a variable to a scalar power", 1)
    reg.register("sqrt", arithmetic.sqrt, "elementwise square root (negatives masked)", 1)
    reg.register("log", arithmetic.log, "elementwise natural log (non-positives masked)", 1)
    reg.register("exp", arithmetic.exp, "elementwise exponential", 1)
    reg.register("abs", arithmetic.absolute, "elementwise absolute value", 1)
    reg.register("scale", arithmetic.scale, "multiply by a scalar factor", 1)
    reg.register("offset", arithmetic.offset, "add a scalar offset", 1)
    reg.register("area_average", averages.area_average, "area-weighted lat/lon mean", 1,
                 streaming=True)
    reg.register("zonal_mean", averages.zonal_mean, "mean over longitude", 1, streaming=True)
    reg.register("meridional_mean", averages.meridional_mean, "area-weighted mean over latitude", 1,
                 streaming=True)
    reg.register("axis_average", averages.axis_average, "weighted mean over one named axis", 1,
                 streaming=True)
    reg.register("running_mean", averages.running_mean, "centred running mean along an axis", 1,
                 streaming=True)
    reg.register("monthly_climatology", climatology.monthly_climatology, "12-month mean annual cycle", 1,
                 streaming=True)
    reg.register("seasonal_climatology", climatology.seasonal_climatology, "DJF/MAM/JJA/SON means", 1,
                 streaming=True)
    reg.register("anomalies", climatology.anomalies, "departures from the monthly climatology", 1,
                 streaming=True)
    reg.register("annual_mean", climatology.annual_mean, "per-year time means", 1, streaming=True)
    reg.register("correlation", statistics.correlation, "weighted correlation of two variables", 2,
                 streaming=True)
    reg.register("covariance", statistics.covariance, "weighted covariance of two variables", 2,
                 streaming=True)
    reg.register("rms_difference", statistics.rms_difference, "weighted RMS difference", 2,
                 streaming=True)
    reg.register("linear_trend", statistics.linear_trend, "least-squares trend along time", 1,
                 streaming=True)
    reg.register("standardize", statistics.standardize, "remove mean, divide by std along an axis", 1,
                 streaming=True)
    reg.register("variance", statistics.variance, "variance along a named axis", 1, streaming=True)
    # percentile gathers the full per-point series along the slab axis —
    # the documented exception to bounded-memory reduction
    reg.register("percentile", statistics.percentile, "percentile along a named axis", 1)
    reg.register("mask_where", conditioned.mask_where, "mask a variable where a condition holds", 2,
                 streaming=True)
    reg.register("compare_where", conditioned.compare_where, "conditioned comparison of two variables", 2,
                 streaming=True)
    reg.register("pressure_weighted_mean", vertical.pressure_weighted_mean, "mass-weighted vertical mean", 1,
                 streaming=True)
    reg.register("interpolate_to_level", vertical.interpolate_to_level,
                 "interpolate to one vertical level", 1, streaming=True)
    reg.register("vertical_integral", vertical.vertical_integral, "integral over the level axis", 1,
                 streaming=True)
    from repro.cdat import filters

    reg.register("spatial_smooth", filters.spatial_smooth, "Gaussian lat/lon smoothing", 1,
                 streaming=True)
    reg.register("detrend", filters.detrend, "remove the linear trend along an axis", 1,
                 streaming=True)
    reg.register("bandpass", filters.bandpass_running_mean, "running-mean band-pass filter", 1,
                 streaming=True)
