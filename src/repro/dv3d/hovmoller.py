"""Hovmöller plots.

"The Hovmöller slicer and volume render plots are similar to the 3D
slicer and volume render plots described above except that they operate
on a data volume structured with time (instead of height or pressure
level) as the vertical dimension.  This plot allows scientists to
quickly and easily browse the 3D structure of spatial time series."

Both plot classes below reuse their spatial counterparts' machinery and
override only the translation stage (time → z axis).  The classic 2-D
Hovmöller diagram (longitude × time at one latitude) is the y-plane
slice of the Hovmöller slicer — :meth:`HovmollerSlicerPlot.diagram`
extracts it directly for quantitative use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.cdms.variable import Variable
from repro.dv3d.interaction import number
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.translation import translate_hovmoller
from repro.dv3d.volume import VolumePlot
from repro.rendering.image_data import ImageData
from repro.util.errors import DV3DError


class _HovmollerTranslation:
    """Mixin overriding the translation stage: time becomes the z axis.

    Animation over time is meaningless here (time *is* an axis of the
    volume), so the time index is pinned and ``n_timesteps`` reports 1.
    """

    variable: Variable
    level_index: int

    def _build_volume(self) -> ImageData:
        return translate_hovmoller(self.variable, level_index=self.level_index)

    @property
    def n_timesteps(self) -> int:  # time is spatialized; no animation axis
        return 1

    def set_level_index(self, index: int) -> None:
        """Pick the level the (lon, lat, time) volume is cut at."""
        index = int(index)
        if index != self.level_index:
            self.level_index = index
            self.invalidate()

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base["level_index"] = self.level_index
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        level = number(state, "level_index", self.level_index, integral=True)
        if self.variable.get_level() is not None:
            n_levels = self.variable.shape[self.variable.axis_index("level")]
            if not -n_levels <= level < n_levels:
                raise DV3DError(f"level_index {level} is outside the {n_levels} levels")
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            self.set_level_index(level)

        return apply


class HovmollerSlicerPlot(_HovmollerTranslation, SlicerPlot):
    """Slice planes through a (lon, lat, time) volume."""

    plot_type = "hovmoller_slicer"

    def __init__(
        self,
        variable: Variable,
        level_index: int = 0,
        **kwargs: Any,
    ) -> None:
        if variable.get_time() is None:
            raise DV3DError(f"variable {variable.id!r} has no time axis for a Hovmöller plot")
        self.level_index = int(level_index)
        # the canonical Hovmöller view: one latitude plane (y), showing
        # longitude × time
        kwargs.setdefault("enabled_planes", ("y",))
        super().__init__(variable, **kwargs)

    def diagram(self, latitude: float = 0.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 2-D Hovmöller diagram at *latitude*.

        Returns ``(values, longitudes, times)`` with values shaped
        ``(n_lon, n_time)`` — longitude along rows, time along columns.
        """
        values, lons, times = self.volume.extract_slice(
            1, float(latitude), name=self.variable.id
        )
        return values, lons, times


class HovmollerVolumePlot(_HovmollerTranslation, VolumePlot):
    """Volume rendering of a (lon, lat, time) volume."""

    plot_type = "hovmoller_volume"

    def __init__(
        self,
        variable: Variable,
        level_index: int = 0,
        **kwargs: Any,
    ) -> None:
        if variable.get_time() is None:
            raise DV3DError(f"variable {variable.id!r} has no time axis for a Hovmöller plot")
        self.level_index = int(level_index)
        super().__init__(variable, **kwargs)
