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

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.cdms.slabs import padded_range, require_finite_range
from repro.cdms.variable import Variable
from repro.dv3d.translation import translate_variable
from repro.rendering.camera import Camera
from repro.rendering.colormap import Colormap
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.image_data import ImageData
from repro.rendering.scene import Renderer, Scene
from repro.util.errors import DV3DError


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
        #: (what the scene was built from, the built scene) — see scene()
        self._scene_memo: Optional[Tuple[Any, Scene]] = None

    # -- data ------------------------------------------------------------

    @property
    def n_timesteps(self) -> int:
        time_axis = self.variable.get_time()
        return 1 if time_axis is None else len(time_axis)

    def _build_volume(self) -> ImageData:
        return translate_variable(
            self.variable, self.time_index, self.vertical_exaggeration
        )

    @property
    def volume(self) -> ImageData:
        """The translated volume for the current time step (cached)."""
        if self._volume is None:
            self._volume = self._build_volume()
        return self._volume

    def invalidate(self) -> None:
        """Drop the cached volume (after a time step or data change) and
        the scene built from it."""
        self._volume = None
        self._scene_memo = None

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
        """The plot's scene, rebuilt only when what it reads has changed.

        VTK's modified-time rule: a camera move, a resize or an
        unchanged repeat re-executes nothing upstream of the renderer.
        Every call returns a fresh :meth:`Scene.shell` over the kept
        build's actors, stamped with that build's token, so a caller
        may add furnishings to what it gets.
        """
        key = self._scene_key()
        memo = self._scene_memo
        hit = memo is not None and memo[0] == key
        if not hit:
            built = self.build_scene()
            built.stamp = object()
            memo = self._scene_memo = (key, built)
        obs.counter("dv3d.scene.hits" if hit else "dv3d.scene.misses",
                    plot=self.plot_type)
        return memo[1].shell()

    def default_camera(self) -> Camera:
        return Camera.fit_bounds(self.volume.bounds())

    def render(
        self,
        width: int = 400,
        height: int = 300,
        camera: Optional[Camera] = None,
    ) -> Framebuffer:
        cam = camera or self.camera or self.default_camera()
        return Renderer(width, height).render(self.scene(), cam)

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
        ray misses the data volume entirely.
        """
        cam = camera or self.camera or self.default_camera()
        origins, dirs = cam.pixel_rays(width, height)
        idx = py * width + px
        if not 0 <= idx < origins.shape[0]:
            raise DV3DError(f"pixel ({px}, {py}) outside {width}x{height}")
        from repro.rendering.raycast import _ray_box_intersection

        o = origins[idx : idx + 1]
        d = dirs[idx : idx + 1]
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
        propagated gesture stream.
        """
        if "time_index" in state:
            self.set_time_index(int(state["time_index"]))
        if "vertical_exaggeration" in state:
            self.set_vertical_exaggeration(state["vertical_exaggeration"])
        if "colormap" in state and state["colormap"] is not None:
            self.colormap = Colormap.from_state(state["colormap"])
        if "scalar_range" in state and state["scalar_range"] is not None:
            lo, hi = state["scalar_range"]
            self.set_scalar_range(float(lo), float(hi))
        if state.get("camera"):
            self.camera = Camera.from_state(state["camera"])

    # -- interaction dispatch ------------------------------------------------------

    def handle_key(self, key: str) -> Dict[str, Any]:
        """Process a key command; returns the state delta it caused."""
        from repro.dv3d.interaction import handle_key

        return handle_key(self, key)

    def handle_drag(self, dx: float, dy: float, mode: str = "camera") -> Dict[str, Any]:
        """Process a mouse drag in normalized cell units."""
        from repro.dv3d.interaction import handle_drag

        return handle_drag(self, dx, dy, mode)
