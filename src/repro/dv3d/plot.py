"""The DV3D plot base class.

Each DV3D plot type "offers a unique perspective by highlighting
particular features of the data" but they all share (§III.D) the same
feature set: animation over a data dimension, configuration state that
is recorded as provenance, interactive query/browse/navigation, and
colormap control.  :class:`Plot3D` implements that shared machinery;
subclasses implement :meth:`Plot3D.build_scene` and expose their own
interactive operations.

Configuration is a flat, JSON-serializable ``state()`` dictionary —
the unit of propagation for spreadsheet sync, hyperwall messaging and
provenance capture.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.cdms.slabs import padded_range, require_finite_range
from repro.cdms.variable import Variable
from repro.dv3d.interaction import number, number_pair, optional_positive
from repro.dv3d.translation import TranslationPlan, add_variable_to_volume, translate_variable
from repro.rendering.camera import Camera
from repro.rendering.colormap import Colormap
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import box_outline
from repro.rendering.image_data import ImageData
from repro.rendering.scene import Actor, Renderer, Scene
from repro.util.errors import DV3DError, RenderingError
from repro.util.kept import Kept, same_first, same_items

_ANGLES = struct.Struct("<dd")  # an orbit's (azimuth, elevation), bit for bit


class Plot3D:
    """Base class of all DV3D plots.

    Parameters
    ----------
    variable:
        The primary CDMS variable (must carry lat/lon axes; time and
        level axes are optional and drive animation / the z axis).
    colormap:
        Name of the initial colormap.
    scalar_range:
        Override the colormap data range (default: the variable's
        finite min/max over all time steps, so animation is stable).
    """

    plot_type = "base"
    #: the attributes naming variables added to the volume as arrays of their own
    added_variables: Tuple[str, ...] = ()

    def __init__(
        self,
        variable: Variable,
        colormap: str = "default",
        scalar_range: Optional[Tuple[float, float]] = None,
        vertical_exaggeration: Optional[float] = None,
    ) -> None:
        self.variable = variable
        self.vertical_exaggeration = vertical_exaggeration
        self.time_index = 0
        self.colormap = Colormap(colormap)
        if scalar_range is None:
            # finite_range() lets lazy streaming variables answer from
            # manifest statistics without materializing any payload
            scalar_range = require_finite_range(variable, DV3DError)
        self.scalar_range: Tuple[float, float] = padded_range(scalar_range)
        self.camera: Optional[Camera] = None
        self._volume: Optional[ImageData] = None
        #: a weak reference to the combined plot whose volume this one draws, if any
        self._volume_owner: Optional[Callable[[], Optional[Plot3D]]] = None
        label = self.plot_type
        self._scene_memo = Kept("dv3d.scene", plot=label)
        self._fitted = Kept("dv3d.fit", plot=label)
        self._orbited = Kept("dv3d.orbit", same_first, plot=label)
        self._outlined = Kept("dv3d.outline", plot=label)
        #: the attribute naming each translated variable → its kept plan
        self._plans: Dict[str, Kept] = defaultdict(
            lambda: Kept("dv3d.plan", same_items, plot=label))

    # -- data ------------------------------------------------------------

    @property
    def n_timesteps(self) -> int:
        time_axis = self.variable.get_time()
        return 1 if time_axis is None else len(time_axis)

    def translation_plan(self, name: str) -> TranslationPlan:
        """The kept :class:`TranslationPlan` of the variable in attribute
        *name*, derived again only when that variable's axes are not the
        ones it was derived from: a time step translates its data, not
        its grid."""
        variable = getattr(self, name)
        return self._plans[name].get(variable.axes, lambda: TranslationPlan(variable))

    def _build_volume(self) -> ImageData:
        volume = translate_variable(
            self.variable, self.time_index, self.vertical_exaggeration,
            self.translation_plan("variable"),
        )
        for name in self.added_variables:
            if getattr(self, name) is not None:
                add_variable_to_volume(volume, getattr(self, name), self.time_index,
                                       self.translation_plan(name))
        return volume

    @property
    def volume(self) -> ImageData:
        """The translated volume for the current time step, kept by its owner."""
        owner = (self._volume_owner and self._volume_owner()) or self
        if owner._volume is None:
            owner._volume = owner._build_volume()
        return owner._volume

    def invalidate(self) -> None:
        """Drop the cached volume (after a time step or data change), so
        the scene kept for it is built again (its key holds the volume)."""
        self._volume = None

    def set_time_index(self, index: int) -> None:
        index = int(index) % max(self.n_timesteps, 1)
        if index != self.time_index:
            self.time_index = index
            self.invalidate()

    def set_vertical_exaggeration(self, value: Optional[float]) -> None:
        """Rescale the z axis (``None``: the translation's default)."""
        value = None if value is None else float(value)
        if value != self.vertical_exaggeration:
            self.vertical_exaggeration = value
            self.invalidate()

    def step_time(self, delta: int = 1) -> int:
        """Advance the animation dimension; returns the new index."""
        self.set_time_index((self.time_index + delta) % max(self.n_timesteps, 1))
        return self.time_index

    # -- scene / render -----------------------------------------------------

    def build_scene(self) -> Scene:
        """Construct the plot's scene (implemented by each plot type)."""
        raise NotImplementedError

    def _scene_key(self) -> Any:
        """What :meth:`build_scene` reads: the translated volume (by
        identity — :meth:`invalidate` replaces it) and the configuration
        minus the camera."""
        state = self.state()
        del state["camera"]
        return self.volume, state

    def scene(self) -> Scene:
        """A fresh :meth:`Scene.shell` over the scene kept for
        :meth:`_scene_key` (VTK's modified-time rule: a camera move, a
        resize or a repeat builds nothing), stamped with its build's
        token; a caller may add furnishings to what it gets."""
        return self._scene_memo.get(self._scene_key(), self._built_scene).shell()

    def _built_scene(self) -> Scene:
        with obs.span("plot.build_scene", plot=self.plot_type):
            built = self.build_scene()
        built.stamp = object()
        return built

    def default_camera(self) -> Camera:
        """The camera framing the current volume, kept per
        ``volume.bounds()``: every frame that passes no camera shares one
        frozen :class:`Camera`, and its cached basis with it."""
        bounds = self.volume.bounds()
        return self._fitted.get(bounds, lambda: Camera.fit_bounds(bounds))

    def frame_actor(self) -> Actor:
        """The volume's frame outline as a fresh actor, over geometry laid
        out once per ``volume.bounds()`` (read-only points and lines), as
        a cell keeps its base map."""
        bounds = self.volume.bounds()
        outline = self._outlined.get(bounds, lambda: box_outline(bounds).freeze())
        return Actor(outline, line_color=(0.7, 0.7, 0.75), lighting=False, name="frame")

    def orbit(self, camera: Camera, azimuth: float, elevation: float) -> Camera:
        """``camera.orbit(azimuth, elevation)``, kept on the plot (so a
        chain of orbits pins no earlier camera) for the very *camera* and
        the angles' types and IEEE bits: ``-0.0`` is not ``0.0``."""
        angles = (type(azimuth), type(elevation), _ANGLES.pack(azimuth, elevation))
        return self._orbited.get((camera, angles), lambda: camera.orbit(azimuth, elevation))

    def resolve_camera(self, camera: Optional[Camera] = None) -> Camera:
        """The camera a frame is drawn through: *camera*, else the
        plot's own, else :meth:`default_camera` — the one place that
        fallback is spelled."""
        return camera or self.camera or self.default_camera()

    def render(
        self,
        width: int = 400,
        height: int = 300,
        camera: Optional[Camera] = None,
    ) -> Framebuffer:
        return Renderer(width, height).render(self.scene(), self.resolve_camera(camera))

    # -- colormap commands (shared key commands) ------------------------------

    def cycle_colormap(self) -> str:
        self.colormap = self.colormap.next_map()
        return self.colormap.name

    def invert_colormap(self) -> bool:
        self.colormap = self.colormap.invert()
        return self.colormap.inverted

    def set_scalar_range(self, vmin: float, vmax: float) -> None:
        if vmax <= vmin:
            raise DV3DError(f"bad scalar range ({vmin}, {vmax})")
        self.scalar_range = (float(vmin), float(vmax))

    # -- picking ("probe data values") ------------------------------------------

    def pick(self, world_point: np.ndarray) -> Dict[str, float]:
        """Probe the data value at a world point.

        Returns the sampled value plus geographic coordinates — the
        content of the cell's "pick operation display".
        """
        point = np.asarray(world_point, dtype=np.float64).reshape(1, 3)
        value = float(self.volume.sample(point, name=self.variable.id)[0])
        return {
            "value": value,
            "longitude": float(point[0, 0]),
            "latitude": float(point[0, 1]),
            "z": float(point[0, 2]),
        }

    def pick_ray(
        self, px: int, py: int, width: int, height: int, camera: Optional[Camera] = None
    ) -> Optional[Dict[str, float]]:
        """Probe along the view ray of pixel (px, py).

        Returns the first finite sample along the ray, or None when the
        ray misses the data volume entirely.  A pixel outside the
        ``width`` x ``height`` view raises :class:`DV3DError`.
        """
        if not (0 <= px < width and 0 <= py < height):
            raise DV3DError(f"pixel ({px}, {py}) outside {width}x{height}")
        cam = self.resolve_camera(camera)
        origin, direction = cam.pixel_ray(px, py, width, height)
        from repro.rendering.raycast import _ray_box_intersection

        o = origin[None, :]
        d = direction[None, :]
        t0, t1 = _ray_box_intersection(o, d, self.volume.bounds())
        if t0[0] >= t1[0]:
            return None
        step = float(min(self.volume.spacing)) * 0.5
        ts = np.arange(max(t0[0], 0.0), t1[0], step)
        if ts.size == 0:
            return None
        pts = o + d * ts[:, None]
        values = self.volume.sample(pts, name=self.variable.id)
        finite = np.nonzero(np.isfinite(values))[0]
        if finite.size == 0:
            return None
        hit = pts[finite[0]]
        return self.pick(hit)

    # -- configuration state ---------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Flat JSON-serializable configuration snapshot."""
        return {
            "plot_type": self.plot_type,
            "variable": self.variable.id,
            "time_index": self.time_index,
            "colormap": self.colormap.state(),
            "scalar_range": list(self.scalar_range),
            "vertical_exaggeration": self.vertical_exaggeration,
            "camera": None if self.camera is None else self.camera.state(),
        }

    def apply_state(self, state: Dict[str, Any]) -> None:
        """Apply a configuration snapshot (spreadsheet/hyperwall sync).

        Unknown keys are ignored so heterogeneous plots can share one
        propagated gesture stream.  Every known key is checked before
        any is applied, so a :class:`DV3DError` leaves the plot as it
        was and no value that would break a later draw gets in.
        """
        self._stage_state(state)()

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Check every key of *state* this plot knows, raising
        :class:`DV3DError`; returns the call that applies them.

        A subclass checks its own keys, stages its base's, and returns
        a call that applies the base's keys, then its own."""
        # absent, the time step is left alone when the call runs, not
        # set back to the one read now
        time_index = None
        if "time_index" in state:
            time_index = number(state, "time_index", integral=True)
        exaggeration = self.vertical_exaggeration
        if "vertical_exaggeration" in state:
            exaggeration = optional_positive(state, "vertical_exaggeration")
        colormap = state.get("colormap")
        if colormap is not None:
            colormap = _colormap_from_state(colormap)
        scalar_range = state.get("scalar_range")
        if scalar_range is not None:
            scalar_range = number_pair(state, "scalar_range")
            if scalar_range[1] <= scalar_range[0]:
                raise DV3DError(f"bad scalar range {scalar_range!r}")
        camera = state.get("camera")
        if camera:
            camera = _camera_from_state(camera)

        def apply() -> None:
            if time_index is not None:
                self.set_time_index(time_index)
            self.set_vertical_exaggeration(exaggeration)
            if colormap is not None:
                self.colormap = colormap
            if scalar_range is not None:
                self.set_scalar_range(*scalar_range)
            if camera:
                self.camera = camera

        return apply

    # -- interaction dispatch ------------------------------------------------------

    def handle_key(self, key: str) -> Dict[str, Any]:
        """Process a key command; returns the state delta it caused."""
        from repro.dv3d.interaction import handle_key

        return handle_key(self, key)

    def handle_drag(self, dx: float, dy: float, mode: str = "camera") -> Dict[str, Any]:
        """Process a mouse drag in normalized cell units."""
        from repro.dv3d.interaction import handle_drag

        return handle_drag(self, dx, dy, mode)


def _colormap_from_state(state: Any) -> Colormap:
    """:meth:`Colormap.from_state`, refusing with :class:`DV3DError`."""
    if not isinstance(state, dict):
        raise DV3DError(f"colormap must be a mapping, got {state!r}")
    name = state.get("name", "default")
    if not isinstance(name, str):
        raise DV3DError(f"colormap name must be a string, got {name!r}")
    n_colors = number(state, "n_colors", 256, integral=True)
    try:
        return Colormap(name, n_colors, bool(state.get("inverted", False)))
    except RenderingError as exc:
        raise DV3DError(str(exc)) from None


def _camera_from_state(state: Any) -> Camera:
    """:meth:`Camera.from_state`, refusing with :class:`DV3DError` a
    camera it cannot build or one of non-finite numbers."""
    if not isinstance(state, dict):
        raise DV3DError(f"camera must be a mapping, got {state!r}")
    vectors = {}
    for key in ("position", "focal_point", "view_up"):
        if key not in state:
            raise DV3DError(f"camera has no {key}")
        vector = state[key]
        if not isinstance(vector, (list, tuple)) or len(vector) != 3:
            raise DV3DError(f"camera {key} must be three numbers, got {vector!r}")
        vectors[key] = tuple(number({key: v}, key) for v in vector)
    scalars = {}
    for key in ("fov_degrees", "near", "far"):
        if key not in state:
            raise DV3DError(f"camera has no {key}")
        scalars[key] = number(state, key)
    try:
        return Camera(**vectors, **scalars)
    except RenderingError as exc:
        raise DV3DError(str(exc)) from None
