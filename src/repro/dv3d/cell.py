"""The DV3D cell: a plot dressed for the spreadsheet.

"Each branch of a DV3D workflow terminates in a DV3D cell module, which
represents a custom cell in the UVCDAT spreadsheet.  The DV3D cell
module includes a configurable base map, navigation controls, onscreen
dataset and variable labels, a pick operation display, and
legend/colormap displays."

:class:`DV3DCell` wraps any :class:`~repro.dv3d.plot.Plot3D` and adds
those furnishings to its rendered frame; it is also the unit of
activation/deactivation in the spreadsheet and the unit of execution on
a hyperwall client.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dv3d.basemap import basemap_polydata
from repro.dv3d.interaction import Gesture
from repro.dv3d.plot import Plot3D
from repro.rendering.annotation import AxisLabel, axis_annotations, project_labels
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData
from repro.rendering.scene import Actor, Renderer, Scene
from repro.rendering.text import render_text, text_width
from repro.util.errors import DV3DError
from repro.util.kept import Kept


class DV3DCell:
    """A spreadsheet cell hosting one DV3D plot."""

    def __init__(
        self,
        plot: Plot3D,
        dataset_label: str = "",
        show_basemap: bool = True,
        show_labels: bool = True,
        show_colorbar: bool = True,
        show_axes: bool = False,
        active: bool = True,
    ) -> None:
        self.plot = plot
        self.dataset_label = dataset_label
        self.show_basemap = bool(show_basemap)
        self.show_labels = bool(show_labels)
        self.show_colorbar = bool(show_colorbar)
        self.show_axes = bool(show_axes)
        self.active = bool(active)
        self.last_pick: Optional[Dict[str, float]] = None
        label = plot.plot_type
        self._laid_out = Kept("dv3d.layout", plot=label)
        self._furnished = Kept("dv3d.furnish", plot=label)
        #: the last finished frame: 16 B per pixel that die with the cell
        self._frame = Kept("dv3d.frame", plot=label)
        self._legend = Kept("dv3d.legend", plot=label)
        #: (text, colour, background alpha) → read-only RGBA patch: the
        #: text the last drawn frame blended, and the frame being drawn's
        self._patches: Dict[Tuple[str, Tuple[float, ...], float], np.ndarray] = {}
        self._drawing: Dict[Tuple[str, Tuple[float, ...], float], np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"DV3DCell(plot={self.plot.plot_type!r}, var={self.plot.variable.id!r}, "
            f"active={self.active})"
        )

    # -- activation (spreadsheet propagation honors this) ---------------------

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    # -- picking with display ---------------------------------------------------

    def pick(self, world_point: np.ndarray) -> Dict[str, float]:
        self.last_pick = self.plot.pick(world_point)
        return self.last_pick

    def _pick_text(self) -> Optional[str]:
        if self.last_pick is None:
            return None
        p = self.last_pick
        value = p.get("value", float("nan"))
        return (
            f"PICK {value:.3f} AT {p.get('longitude', 0.0):.1f}E "
            f"{p.get('latitude', 0.0):.1f}N"
        )

    # -- rendering ------------------------------------------------------------------

    def _layout(self) -> Tuple[Optional[PolyData], Optional[PolyData], List[AxisLabel]]:
        """(base map, axis ticks, axis labels) for the volume's bounds,
        laid out once per (bounds, show_basemap, show_axes)."""
        bounds = self.plot.volume.bounds()
        return self._laid_out.get((bounds, self.show_basemap, self.show_axes),
                                  lambda: self._lay_out(bounds))

    def _lay_out(self, bounds: Tuple[float, ...]) -> Tuple[Any, ...]:
        # read-only, so each keeps its projection for the last view
        basemap = basemap_polydata(bounds).freeze() if self.show_basemap else None
        ticks, axis_labels = axis_annotations(bounds) if self.show_axes else (None, [])
        return basemap, None if ticks is None else ticks.freeze(), axis_labels

    def _furnished_scene(self) -> Tuple[Scene, List[AxisLabel]]:
        """The plot's scene plus base map and axis ticks, and the axis
        labels to project; rebuilt only when the plot's scene was, over
        geometry laid out only when the bounds change."""
        scene = self.plot.scene()
        return self._furnished.get((scene.stamp, self.show_basemap, self.show_axes),
                                   lambda: self._furnish(scene))

    def _furnish(self, scene: Scene) -> Tuple[Scene, List[AxisLabel]]:
        basemap, ticks, axis_labels = self._layout()
        # fresh actors: no actor is shared between two scenes
        if basemap is not None and basemap.n_points:
            scene.add_actor(
                Actor(basemap, line_color=(0.45, 0.42, 0.3), lighting=False, name="basemap")
            )
        if ticks is not None and ticks.n_points:
            scene.add_actor(
                Actor(ticks, line_color=(0.8, 0.8, 0.8), lighting=False, name="axis-ticks")
            )
        scene.stamp = object()
        return scene, axis_labels

    def render(
        self,
        width: int = 400,
        height: int = 300,
        camera: Optional[Camera] = None,
    ) -> Framebuffer:
        """Render the plot plus base map, labels, colorbar and pick display.

        The last finished frame is kept against everything it was drawn
        from, so an unchanged request is a lookup; every call returns a
        copy of it, for the caller to blend into.
        """
        scene, axis_labels = self._furnished_scene()
        cam = self.plot.resolve_camera(camera)
        pick_text = self._pick_text() if self.show_labels else None
        key = (scene.stamp, cam, width, height, self.show_labels,
               self.show_colorbar, self.dataset_label, pick_text)
        return self._frame.get(key, lambda: self._dress(
            Renderer(width, height).render(scene, cam), axis_labels, cam, pick_text)).copy()

    def _dress(self, fb: Framebuffer, axis_labels: List[AxisLabel], cam: Camera,
               pick_text: Optional[str]) -> Framebuffer:
        """Blend the axis labels, labels, colorbar and pick display into *fb*."""
        self._drawing = {}
        for text, row, col in project_labels(axis_labels, cam, fb.width, fb.height):
            patch = self._text(text, color=(0.85, 0.85, 0.85))
            fb.blend_patch(row - patch.shape[0] // 2,
                           col - patch.shape[1] // 2, patch)
        if self.show_labels:
            self._draw_labels(fb)
        if self.show_colorbar:
            self._draw_colorbar(fb)
        if pick_text:
            patch = self._text(pick_text, color=(1.0, 1.0, 0.6), background_alpha=0.35)
            fb.blend_patch(fb.height - patch.shape[0] - 4, 4, patch)
        self._patches = self._drawing
        return fb

    def _text(self, text: str, color: Tuple[float, float, float] = (1.0, 1.0, 1.0),
              background_alpha: float = 0.0) -> np.ndarray:
        """``render_text(text, color, background_alpha=...)``, taken from
        the last drawn frame's patches when it blended the same; the
        frame being drawn keeps what it uses, so the store holds only
        the last frame's text."""
        key = (text, color, background_alpha)
        patch = self._drawing.get(key)
        if patch is None:
            patch = self._patches.get(key)
            if patch is None:
                patch = render_text(text, color=color, background_alpha=background_alpha)
                patch.flags.writeable = False
            self._drawing[key] = patch
        return patch

    def _draw_labels(self, fb: Framebuffer) -> None:
        """Dataset/variable labels, top-left; plot type top-right."""
        var = self.plot.variable
        title = f"{var.id}"
        units = var.units
        if units:
            title += f" ({units})"
        if self.dataset_label:
            title = f"{self.dataset_label}: {title}"
        patch = self._text(title, background_alpha=0.35)
        fb.blend_patch(4, 4, patch)
        type_label = self.plot.plot_type.upper()
        tw = text_width(type_label)
        patch = self._text(type_label, color=(0.7, 0.9, 1.0), background_alpha=0.35)
        fb.blend_patch(4, max(fb.width - tw - 4, 0), patch)
        if self.plot.n_timesteps > 1:
            step = f"T={self.plot.time_index}/{self.plot.n_timesteps - 1}"
            patch = self._text(step, color=(0.8, 0.8, 0.8), background_alpha=0.35)
            fb.blend_patch(14, 4, patch)

    def _draw_colorbar(self, fb: Framebuffer) -> None:
        """Colormap legend strip with min/max annotations, right edge;
        the strip kept per (colormap, bar height)."""
        bar_height = max(fb.height // 2, 24)
        colormap = self.plot.colormap
        key = (colormap.name, colormap.n_colors, colormap.inverted, bar_height)
        legend = self._legend.get(key, lambda: np.pad(  # RGBA at 0.9 opacity
            colormap.colorbar_strip(width=10, height=bar_height).astype(np.float32),
            ((0, 0), (0, 0), (0, 1)), constant_values=0.9))
        row = (fb.height - bar_height) // 2
        col = fb.width - 14
        fb.blend_patch(row, col, legend)
        lo, hi = self.plot.scalar_range
        hi_text = self._text(f"{hi:.4g}", background_alpha=0.3)
        lo_text = self._text(f"{lo:.4g}", background_alpha=0.3)
        fb.blend_patch(row - 9, max(col - hi_text.shape[1] + 10, 0), hi_text)
        fb.blend_patch(row + bar_height + 2, max(col - lo_text.shape[1] + 10, 0), lo_text)

    # -- configuration & sync ---------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        return {
            "plot": self.plot.state(),
            "dataset_label": self.dataset_label,
            "show_basemap": self.show_basemap,
            "show_labels": self.show_labels,
            "show_colorbar": self.show_colorbar,
            "show_axes": self.show_axes,
            "active": self.active,
        }

    def apply_state(self, state: Dict[str, Any]) -> None:
        if "plot" in state:
            self.plot.apply_state(state["plot"])
        for key in ("show_basemap", "show_labels", "show_colorbar", "show_axes"):
            if key in state:
                setattr(self, key, bool(state[key]))
        if "dataset_label" in state:
            self.dataset_label = str(state["dataset_label"])
        if "active" in state:
            self.active = bool(state["active"])

    def handle_event(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Apply one gesture to this cell's plot; returns the state delta.

        This is the one place a gesture meets a cell — the spreadsheet's
        sync group, the hyperwall mirror and every display node call it.
        A malformed gesture raises :class:`DV3DError` (see
        :class:`~repro.dv3d.interaction.Gesture`).  Two well-formed ones
        are ignored, with delta ``{}``:

        * any gesture on an inactive cell — "cells in the spreadsheet
          can be individually activated or deactivated by selection;
          configuration and navigation operations are propagated to all
          active cells";
        * a gesture this plot type has no binding for (a leveling drag
          on a slicer, a plane toggle on a volume) or a configure whose
          values it rejects — the heterogeneous-cell rule, so one
          gesture can go to every cell of a mixed sheet or wall.
        """
        gesture = Gesture(kind, payload)
        if not self.active:
            return {}
        payload = gesture.payload
        try:
            if kind == "key":
                return self.plot.handle_key(payload["key"])
            if kind == "drag":
                return self.plot.handle_drag(payload["dx"], payload["dy"], payload["mode"])
            self.apply_state(payload["state"])
            return payload["state"]
        except DV3DError:
            return {}
