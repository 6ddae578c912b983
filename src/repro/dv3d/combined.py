"""Combined plots: several DV3D views composited in one cell.

§III.C: "Multiple plots can be combined synergistically (within a
single cell or across multiple cells) to facilitate understanding of
the natural processes underlying the data" — Fig. 3's top panel is
exactly this, a volume render with a slicer in the same cell.

A :class:`CombinedPlot` wraps any number of component plots over the
same (or spatially compatible) data.  It merges their scenes into one,
keeps their cameras/time indices coordinated, fans interaction commands
to the component that owns them, and exposes the union of their
configuration state.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Sequence

from repro.dv3d.plot import Plot3D
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.scene import Scene
from repro.util.errors import DV3DError


class CombinedPlot(Plot3D):
    """Multiple component plots rendered into one scene/cell.

    The first component is *primary*: it supplies the data volume for
    picking, the colormap shown in the cell's legend, and the animation
    length.  Components must agree on time-axis length when they
    animate (a mismatch raises at construction).
    """

    plot_type = "combined"

    def __init__(self, components: Sequence[Plot3D], **kwargs: Any) -> None:
        components = list(components)
        if not components:
            raise DV3DError("CombinedPlot needs at least one component")
        primary = components[0]
        lengths = {c.n_timesteps for c in components if c.n_timesteps > 1}
        if len(lengths) > 1:
            raise DV3DError(
                f"components disagree on animation length: {sorted(lengths)}"
            )
        super().__init__(primary.variable,
                         scalar_range=primary.scalar_range, **kwargs)
        self.components: List[Plot3D] = components
        self.colormap = primary.colormap

    # -- data: the primary component's volume drives picking/camera -------

    @property
    def primary(self) -> Plot3D:
        return self.components[0]

    @property
    def volume(self) -> ImageData:
        # not cached here: the primary replaces its volume whenever its
        # own time step or data changes, whoever asked it to
        return self.primary.volume

    def invalidate(self) -> None:
        super().invalidate()
        for component in self.components:
            component.invalidate()

    @property
    def n_timesteps(self) -> int:
        return max(c.n_timesteps for c in self.components)

    def set_time_index(self, index: int) -> None:
        # each component drops its own volume, and only if its index moved
        self.time_index = int(index) % max(self.n_timesteps, 1)
        for component in self.components:
            if component.n_timesteps > 1:
                component.set_time_index(self.time_index)

    # -- scene composition ---------------------------------------------------

    def _scene_key(self) -> Any:
        # camera-free all the way down: state() embeds each component's
        # state with the camera it is handed on every navigation gesture.
        # A component's own key holds its volume, so a rebuild this
        # plot's state cannot see (its invalidate()) shows here too
        volume, state = super()._scene_key()
        state["components"] = [c._scene_key() for c in self.components]
        return volume, state

    def build_scene(self) -> Scene:
        merged = Scene()
        seen_frames = 0
        for i, component in enumerate(self.components):
            scene = component.scene()
            for actor in scene.actors:
                if actor.name == "frame":
                    # keep only one bounding frame
                    seen_frames += 1
                    if seen_frames > 1:
                        continue
                    merged.add_actor(actor)
                else:
                    # a renamed copy: the component keeps its actors
                    merged.add_actor(replace(actor, name=f"c{i}:{actor.name}"))
            for vactor in scene.volume_actors:
                merged.add_volume(replace(vactor, name=f"c{i}:{vactor.name}"))
        return merged

    def default_camera(self) -> Camera:
        return self.primary.default_camera()

    # -- interaction: fan out, first component that accepts wins -------------

    def handle_key(self, key: str) -> Dict[str, Any]:
        deltas: Dict[str, Any] = {}
        handled = False
        for i, component in enumerate(self.components):
            try:
                delta = component.handle_key(key)
            except DV3DError:
                continue
            handled = True
            deltas[f"component_{i}"] = delta
            if key in ("t", "T"):  # keep the combined time index aligned
                self.time_index = component.time_index
            if key == "r":  # a camera reset applies to the combination
                self.camera = component.camera
                break
        if not handled:
            raise DV3DError(f"combined plot: no component handles key {key!r}")
        return deltas

    def handle_drag(self, dx: float, dy: float, mode: str = "camera") -> Dict[str, Any]:
        if mode in ("camera", "zoom", "pan"):
            # navigation applies to the shared camera
            delta = super().handle_drag(dx, dy, mode)
            for component in self.components:
                component.camera = self.camera
            return delta
        deltas: Dict[str, Any] = {}
        for i, component in enumerate(self.components):
            try:
                deltas[f"component_{i}"] = component.handle_drag(dx, dy, mode)
            except DV3DError:
                continue
        if not deltas:
            raise DV3DError(f"combined plot: no component handles drag mode {mode!r}")
        return deltas

    # -- colormap commands affect every component -----------------------------

    def cycle_colormap(self) -> str:
        names = [component.cycle_colormap() for component in self.components]
        self.colormap = self.primary.colormap
        return names[0]

    def invert_colormap(self) -> bool:
        flags = [component.invert_colormap() for component in self.components]
        self.colormap = self.primary.colormap
        return flags[0]

    # -- state: the union, namespaced per component ----------------------------

    def state(self) -> Dict[str, Any]:
        base = super().state()
        base["components"] = [c.state() for c in self.components]
        return base

    def _stage_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Every component's keys and the base plot's are checked before
        any is applied: a component that refuses its own leaves the time
        step, and every other component, where they were."""
        subs = state.get("components", [])
        if not isinstance(subs, (list, tuple)) or not all(isinstance(sub, dict) for sub in subs):
            raise DV3DError(f"components must be a list of mappings, got {subs!r}")
        apply_components = [
            component._stage_state(sub) for component, sub in zip(self.components, subs)
        ]
        apply_base = super()._stage_state(state)

        def apply() -> None:
            apply_base()
            for apply_component in apply_components:
                apply_component()
            if self.camera is not None:
                for component in self.components:
                    component.camera = self.camera

        return apply
