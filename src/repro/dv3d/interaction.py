"""The interactive command model: one gesture record, one set of bindings.

"The DV3D spreadsheet cells also offer a wide range of interactive key
press and mouse drag operations facilitating the configuration of
colormaps, transfer functions, and other display and execution
options."  A :class:`Gesture` is one such operation — a key press, a
drag or an explicit configure — validated when it is made.  It is the
one record of an interaction: what :class:`~repro.spreadsheet.sync.SyncGroup`
keeps as history, what a :class:`~repro.app.session.Macro` saves and
replays, and what the hyperwall broadcasts to its display nodes and
replays to a re-homed cell.  :meth:`~repro.dv3d.cell.DV3DCell.handle_event`
is where a gesture meets a cell; this module maps it onto plot
operations and returns the resulting **state delta**.

Key commands (shared across plot types where applicable):

========  =====================================================
key       action
========  =====================================================
``c``     cycle colormap
``i``     invert colormap
``t``     step animation forward
``T``     step animation backward
``x y z`` toggle the corresponding slice plane (slicer plots)
``m``     toggle glyphs/streamlines (vector slicer)
``r``     reset camera to the default framing
========  =====================================================

Drag modes (:data:`DRAG_MODES`): ``camera`` (orbit), ``zoom``, ``pan``,
``leveling`` (volume transfer function), ``leveling:color``,
``slice`` (the vector slicer's plane), ``slice:<plane>`` (move a slice
plane), ``isovalue`` (shift the isosurface level).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.util.errors import DV3DError

#: every drag mode :func:`handle_drag` binds; a :class:`Gesture` with
#: another mode is malformed
DRAG_MODES = (
    "camera", "zoom", "pan", "leveling", "leveling:color",
    "slice", "slice:x", "slice:y", "slice:z", "isovalue",
)


def number(payload: Mapping[str, Any], name: str, default: Any = 0.0,
           integral: bool = False) -> Any:
    """``payload[name]`` (*default* when absent) as a float, or an int
    when *integral*: a bool, a non-number, a non-finite float or (when
    *integral*) a fraction raises :class:`DV3DError`.  The one rule for
    the numbers of a gesture and of a :class:`~repro.dv3d.view.View`."""
    value = payload.get(name, default)
    # the built-in types first: an abstract-class check costs a microsecond
    if integral:
        valid = isinstance(value, (int, numbers.Integral))
    else:
        valid = isinstance(value, (float, int, numbers.Real)) and math.isfinite(value)
    if isinstance(value, bool) or not valid:
        what = "a whole number" if integral else "a finite number"
        raise DV3DError(f"{name} must be {what}, got {value!r}")
    return int(value) if integral else float(value)


def number_pair(payload: Mapping[str, Any], name: str) -> Tuple[float, float]:
    """``payload[name]`` as two finite floats (a list or tuple of two
    :func:`number` values), else :class:`DV3DError`."""
    value = payload.get(name)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DV3DError(f"{name} must be two finite numbers, got {value!r}")
    return number({name: value[0]}, name), number({name: value[1]}, name)


def optional_positive(payload: Mapping[str, Any], name: str) -> Optional[float]:
    """``payload[name]`` as ``None`` or a finite float above 0, else
    :class:`DV3DError` — a grid spacing or a step length."""
    if payload.get(name) is None:
        return None
    value = number(payload, name)
    if value <= 0:
        raise DV3DError(f"{name} must be above 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Gesture:
    """One interaction: ``kind`` is ``key``, ``drag`` or ``configure``.

    The payload is checked and normalized on construction — a ``key``
    names a non-empty key, a ``drag`` carries numeric ``dx``/``dy``
    (default 0.0) and a mode from :data:`DRAG_MODES` (default
    ``camera``), a ``configure`` carries a ``state`` dict, and nothing
    else is allowed — so a malformed gesture raises :class:`DV3DError`
    before any cell sees it.  Whether a plot *binds* a well-formed
    gesture is the cell's business, not the record's.
    """

    kind: str
    payload: Dict[str, Any]

    def __post_init__(self) -> None:
        given = dict(self.payload)
        if self.kind == "key":
            normal = {"key": given.get("key")}
            if not isinstance(normal["key"], str) or not normal["key"]:
                raise DV3DError(f"key gesture needs a non-empty string key: {given!r}")
        elif self.kind == "drag":
            normal = {"dx": number(given, "dx"), "dy": number(given, "dy"),
                      "mode": given.get("mode", "camera")}
            if normal["mode"] not in DRAG_MODES:
                raise DV3DError(f"unknown drag mode {normal['mode']!r}")
        elif self.kind == "configure":
            normal = {"state": given.get("state")}
            if not isinstance(normal["state"], dict):
                raise DV3DError(f"configure gesture needs a state dict: {given!r}")
        else:
            raise DV3DError(f"unknown gesture kind {self.kind!r}")
        unknown = sorted(set(given) - set(normal))
        if unknown:
            raise DV3DError(f"{self.kind} gesture has unknown fields {unknown}")
        object.__setattr__(self, "payload", normal)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "payload": self.payload}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Gesture":
        """The gesture ``to_dict`` wrote (extra keys, such as a frame's
        ``cell_id``, are ignored)."""
        try:
            return Gesture(data["kind"], dict(data["payload"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DV3DError(f"malformed gesture: {data!r}") from exc


def handle_key(plot, key: str) -> Dict[str, Any]:
    """Apply a key command to *plot*; returns the state delta."""
    if key == "c":
        return {"colormap": {"name": plot.cycle_colormap()}}
    if key == "i":
        return {"colormap": {"inverted": plot.invert_colormap()}}
    if key == "t":
        return {"time_index": plot.step_time(+1)}
    if key == "T":
        return {"time_index": plot.step_time(-1)}
    if key == "r":
        plot.camera = plot.default_camera()
        return {"camera": plot.camera.state()}
    if key in ("x", "y", "z") and hasattr(plot, "toggle_plane"):
        enabled = plot.toggle_plane(key)
        return {"enabled_planes": list(plot.enabled_planes), "toggled": {key: enabled}}
    if key == "m" and hasattr(plot, "toggle_mode"):
        return {"mode": plot.toggle_mode()}
    raise DV3DError(f"plot {plot.plot_type!r}: unbound key {key!r}")


def handle_drag(plot, dx: float, dy: float, mode: str = "camera") -> Dict[str, Any]:
    """Apply a drag gesture (deltas in normalized cell units, full-cell ≈ 1).

    Returns the state delta the gesture produced.
    """
    if mode not in DRAG_MODES:
        raise DV3DError(f"unknown drag mode {mode!r}")
    if mode == "camera":
        plot.camera = plot.resolve_camera().orbit(dx * 180.0, dy * 90.0)
        return {"camera": plot.camera.state()}
    if mode == "zoom":
        plot.camera = plot.resolve_camera().zoom(max(1e-3, 1.0 + dy))
        return {"camera": plot.camera.state()}
    if mode == "pan":
        camera = plot.resolve_camera()
        scale = camera.distance * 0.5
        plot.camera = camera.pan(-dx * scale, dy * scale)
        return {"camera": plot.camera.state()}
    if mode == "leveling":
        if not hasattr(plot, "level"):
            raise DV3DError(f"plot {plot.plot_type!r} does not support leveling")
        window = plot.level(dx, dy)
        return {"tf_center": window["center"], "tf_width": window["width"]}
    if mode == "leveling:color":
        if not hasattr(plot, "level_color"):
            raise DV3DError(f"plot {plot.plot_type!r} does not support color leveling")
        return plot.level_color(dx, dy)
    if mode == "isovalue":
        if not hasattr(plot, "adjust_isovalue"):
            raise DV3DError(f"plot {plot.plot_type!r} has no isovalue")
        return {"isovalue": plot.adjust_isovalue(dy)}
    if not hasattr(plot, "drag_slice"):  # the slice modes
        raise DV3DError(f"plot {plot.plot_type!r} has no slice planes")
    if (":" in mode) != hasattr(plot, "toggle_plane"):
        raise DV3DError(f"plot {plot.plot_type!r} does not bind drag mode {mode!r}")
    if ":" in mode:  # "slice:x" on the multi-plane slicer
        plane = mode.split(":", 1)[1]
        position = plot.drag_slice(plane, dy)
        return {"plane_positions": {plane: position}}
    position = plot.drag_slice(dy)  # vector slicer: single plane
    return {"plane_position": position}
