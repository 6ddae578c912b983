"""Combined plots: several DV3D views composited in one cell.

§III.C: "Multiple plots can be combined synergistically (within a
single cell or across multiple cells) to facilitate understanding of
the natural processes underlying the data" — Fig. 3's top panel is
exactly this, a volume render with a slicer in the same cell.

A :class:`CombinedPlot` is one plot over one volume: it owns the time
step, the vertical exaggeration, the camera and the translated volume
of its primary component's variable, which every component that would
translate just that variable draws.  It merges their scenes into one,
fans the other commands to the components that bind them, and exposes
the union of their state.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dv3d.plot import Plot3D
from repro.rendering.scene import Scene
from repro.util.errors import DV3DError


class CombinedPlot(Plot3D):
    """Multiple component plots rendered into one scene/cell.

    The first component is *primary*: this plot translates its variable,
    and it supplies the colormap shown in the cell's legend.  Every
    component stands at this plot's time step, exaggeration (the
    primary's unless given) and camera; those that animate must agree
    on time-axis length (a mismatch raises at construction).  A
    component over the primary's variable that adds no array of its
    own draws this plot's volume; any other keeps its own.
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
        kwargs.setdefault("vertical_exaggeration", primary.vertical_exaggeration)
        super().__init__(primary.variable,
                         scalar_range=primary.scalar_range, **kwargs)
        self.components: List[Plot3D] = components
        self.colormap = primary.colormap
        for component in components:
            if (component.variable is self.variable and type(component)._build_volume is Plot3D._build_volume
                    and all(getattr(component, name) is None for name in component.added_variables)):
                component._volume_owner = weakref.ref(self)
        self._lead()

    @property
    def primary(self) -> Plot3D:
        return self.components[0]

    # -- data: one time step, exaggeration and camera for every component ---

    def _lead(self) -> None:
        for component in self.components:
            if component.n_timesteps > 1:
                component.set_time_index(self.time_index)
            component.set_vertical_exaggeration(self.vertical_exaggeration)
            component.camera = self.camera

    def invalidate(self) -> None:
        super().invalidate()
        for component in self.components:
            component.invalidate()

    @property
    def n_timesteps(self) -> int:
        return max(c.n_timesteps for c in self.components)

    def set_time_index(self, index: int) -> None:
        # not super()'s: its invalidate() would drop every component's own volume
        index = int(index) % max(self.n_timesteps, 1)
        if index != self.time_index:
            self.time_index = index
            self._volume = None
        self._lead()

    def set_vertical_exaggeration(self, value: Optional[float]) -> None:
        super().set_vertical_exaggeration(value)
        self._lead()

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

    # -- interaction: fan out to every component that binds it ----------------

    def handle_key(self, key: str) -> Dict[str, Any]:
        if key in ("t", "T", "r"):
            # this plot's step or camera, which every component follows
            delta = super().handle_key(key)
            self._lead()
            return {f"component_{i}": delta for i in range(len(self.components))}
        deltas: Dict[str, Any] = {}
        for i, component in enumerate(self.components):
            try:
                deltas[f"component_{i}"] = component.handle_key(key)
            except DV3DError:
                continue
        if not deltas:
            raise DV3DError(f"combined plot: no component handles key {key!r}")
        return deltas

    def handle_drag(self, dx: float, dy: float, mode: str = "camera") -> Dict[str, Any]:
        if mode in ("camera", "zoom", "pan"):
            # navigation applies to the shared camera
            delta = super().handle_drag(dx, dy, mode)
            self._lead()
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
        """All keys are checked before any is applied, so a refusal leaves
        every plot as it was; the components' keys apply first, then this
        plot's, whose step, exaggeration and camera they all then take."""
        subs = state.get("components", [])
        if not isinstance(subs, (list, tuple)) or not all(isinstance(sub, dict) for sub in subs):
            raise DV3DError(f"components must be a list of mappings, got {subs!r}")
        apply_components = [
            component._stage_state(sub) for component, sub in zip(self.components, subs)
        ]
        apply_base = super()._stage_state(state)

        def apply() -> None:
            for apply_component in apply_components:
                apply_component()
            apply_base()
            self._lead()

        return apply
