"""The Volume render plot.

"The Volume render plot maps variable values within a data volume to
opacity and color.  It enables scientists to create an overview of the
topology of the data, revealing complex 3D structures at a glance ...
DV3D offers interfaces that greatly simplify this process" — chiefly
the *leveling* gesture: pressing the leveling button and dragging in
the cell reshapes the opacity transfer function's window interactively.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.cdms.variable import Variable
from repro.dv3d.interaction import number, number_pair, optional_positive
from repro.dv3d.plot import Plot3D
from repro.rendering.scene import Actor, Scene, VolumeActor
from repro.rendering.transfer_function import TransferFunction
from repro.util.kept import Kept, same_first


class VolumePlot(Plot3D):
    """Volume rendering with an interactively leveled transfer function."""

    plot_type = "volume"

    def __init__(
        self,
        variable: Variable,
        center: float = 0.75,
        width: float = 0.3,
        peak_opacity: float = 0.8,
        step_size: Optional[float] = None,
        lighting: bool = True,
        **kwargs: Any,
    ) -> None:
        super().__init__(variable, **kwargs)
        self.step_size = step_size
        self.lighting = bool(lighting)
        self.transfer = TransferFunction(
            self.scalar_range,
            colormap=self.colormap,
            center=center,
            width=width,
            peak_opacity=peak_opacity,
        )
        #: the view's ray bundle, one (camera, (width, height, bounds)) at a time
        self._rays = Kept("raycast.rays", same_first, plot=self.plot_type)

    # -- interactive leveling ------------------------------------------------

    def level(self, d_center: float, d_width: float) -> Dict[str, float]:
        """The leveling drag: move/scale the opacity window.

        "Pressing a button in a configuration panel and then clicking
        and dragging in a spreadsheet cell ... initiates a leveling
        operation that controls the shape of the plot's opacity or
        color transfer function.  The volume render plot changes
        interactively as the user drags the mouse around the cell."
        """
        self.transfer = self.transfer.level(d_center, d_width)
        return {"center": self.transfer.center, "width": self.transfer.width}

    def level_color(self, d_center: float, d_width: float) -> Dict[str, Any]:
        """The color-side leveling drag: remap the colormap sub-window."""
        self.transfer = self.transfer.level_color(d_center, d_width)
        return {"color_window": list(self.transfer.color_window)}

    def set_window(self, center: float, width: float) -> None:
        self.transfer = TransferFunction(
            self.scalar_range,
            colormap=self.colormap,
            center=float(np.clip(center, 0.0, 1.0)),
            width=float(np.clip(width, 1e-3, 2.0)),
            peak_opacity=self.transfer.peak_opacity,
            color_window=self.transfer.color_window,
        )

    def set_scalar_range(self, vmin: float, vmax: float) -> None:
        super().set_scalar_range(vmin, vmax)
        # the transfer function normalizes by its own copy of the range
        self.set_window(self.transfer.center, self.transfer.width)

    def cycle_colormap(self) -> str:
        name = super().cycle_colormap()
        self.transfer = self.transfer.with_colormap(self.colormap)
        return name

    def invert_colormap(self) -> bool:
        inverted = super().invert_colormap()
        self.transfer = self.transfer.with_colormap(self.colormap)
        return inverted

    # -- scene -------------------------------------------------------------------

    def build_scene(self) -> Scene:
        scene = Scene()
        scene.add_actor(self.frame_actor())
        scene.add_volume(
            VolumeActor(
                self.volume,
                self.transfer,
                array_name=self.variable.id,
                step_size=self.step_size,
                lighting=self.lighting,
                name="volume",
                rays=self._rays,
            )
        )
        return scene

    # -- state ---------------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base.update(
            {
                "tf_center": self.transfer.center,
                "tf_width": self.transfer.width,
                "peak_opacity": self.transfer.peak_opacity,
                "color_window": list(self.transfer.color_window),
                "lighting": self.lighting,
                "step_size": self.step_size,
            }
        )
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """The base plot's keys, then the transfer function's window,
        peak and colour window, the lighting and the step size."""
        transfer = self.transfer
        center = number(state, "tf_center", transfer.center)
        width = number(state, "tf_width", transfer.width)
        peak = number(state, "peak_opacity", transfer.peak_opacity)
        color_window = transfer.color_window
        if "color_window" in state:
            color_window = number_pair(state, "color_window")
        step = self.step_size
        if "step_size" in state:
            step = optional_positive(state, "step_size")
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            if "lighting" in state:
                self.lighting = bool(state["lighting"])
            self.step_size = step
            self.transfer = TransferFunction(
                self.scalar_range, colormap=self.colormap,
                center=center, width=width, peak_opacity=peak,
                color_window=color_window,
            )

        return apply
