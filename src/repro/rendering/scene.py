"""Actors, lights, scenes and the renderer.

This is the object layer DV3D "hides" from scientists: geometry actors
(surfaces, slice planes, lines), volume actors (a volume plus its
transfer function), directional lights, and the :class:`Renderer` that
composes them into a framebuffer — rasterized geometry first (filling
the depth buffer), then volume ray casting limited by that depth so
opaque geometry correctly occludes translucent volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData
from repro.rendering.image_data import ImageData
from repro.rendering.rasterizer import rasterize, runs
from repro.rendering.raycast import raycast_volume
from repro.rendering.transfer_function import TransferFunction
from repro.util.errors import RenderingError
from repro.util.kept import Kept


@dataclass
class DirectionalLight:
    """A simple directional light (direction toward the scene)."""

    direction: Tuple[float, float, float] = (0.4, -0.5, 0.8)
    intensity: float = 1.0


@dataclass
class Actor:
    """A geometry actor: PolyData plus display properties."""

    poly: PolyData
    color: Tuple[float, float, float] = (0.8, 0.8, 0.8)
    line_color: Optional[Tuple[float, float, float]] = None
    lighting: bool = True
    visible: bool = True
    point_size: int = 1
    name: str = ""

    def bounds(self):
        return self.poly.bounds()


@dataclass
class VolumeActor:
    """A volume actor: ImageData + transfer function + sampling control."""

    volume: ImageData
    transfer: TransferFunction
    array_name: Optional[str] = None
    step_size: Optional[float] = None
    lighting: bool = True
    visible: bool = True
    name: str = ""
    #: where the owner keeps this volume's view rays (``raycast_volume``'s
    #: *rays*); ``None`` sets them up every frame
    rays: Optional[Kept] = None

    def bounds(self):
        return self.volume.bounds()


class Scene:
    """An ordered collection of actors plus a background color."""

    def __init__(self, background: Tuple[float, float, float] = (0.08, 0.08, 0.12)) -> None:
        self.background = background
        self.actors: List[Actor] = []
        self.volume_actors: List[VolumeActor] = []
        self.lights: List[DirectionalLight] = [DirectionalLight()]
        #: names the build this scene came from: whoever keeps a built
        #: scene sets a new token per build, and two scenes with the
        #: same (non-None) stamp were handed out from the same build
        self.stamp: Optional[object] = None

    def shell(self) -> "Scene":
        """A new scene over the same actors, carrying the same stamp.

        Adding to or removing from the shell leaves this scene as it
        was; the actors themselves are shared and must not be edited.
        """
        twin = Scene(self.background)
        twin.actors = list(self.actors)
        twin.volume_actors = list(self.volume_actors)
        twin.lights = list(self.lights)
        twin.stamp = self.stamp
        return twin

    def add_actor(self, actor: Actor) -> Actor:
        self.actors.append(actor)
        return actor

    def add_volume(self, actor: VolumeActor) -> VolumeActor:
        self.volume_actors.append(actor)
        return actor

    def remove(self, name: str) -> int:
        """Remove all actors with the given name; returns count removed."""
        before = len(self.actors) + len(self.volume_actors)
        self.actors = [a for a in self.actors if a.name != name]
        self.volume_actors = [a for a in self.volume_actors if a.name != name]
        return before - len(self.actors) - len(self.volume_actors)

    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        """Union of all visible actor bounds."""
        boxes = [a.bounds() for a in self.actors if a.visible and a.poly.n_points]
        boxes += [a.bounds() for a in self.volume_actors if a.visible]
        if not boxes:
            raise RenderingError("scene is empty")
        arr = np.asarray(boxes)
        return (
            float(arr[:, 0].min()), float(arr[:, 1].max()),
            float(arr[:, 2].min()), float(arr[:, 3].max()),
            float(arr[:, 4].min()), float(arr[:, 5].max()),
        )

    def fit_camera(self, direction: Tuple[float, float, float] = (1.0, -1.2, 0.8)) -> Camera:
        """A camera framing the whole scene from *direction*."""
        return Camera.fit_bounds(self.bounds(), direction=direction)


class Renderer:
    """Renders a :class:`Scene` through a :class:`Camera` into a framebuffer.

    Every :meth:`render` call draws: the renderer keeps no frames.  The
    memos that skip a redraw belong to their owners (a DV3D cell keeps
    its last frame; the serving tier is handed a result cache).
    """

    def __init__(self, width: int = 400, height: int = 300) -> None:
        if width < 1 or height < 1:
            raise RenderingError("bad renderer size")
        self.width = int(width)
        self.height = int(height)

    def render(self, scene: Scene, camera: Optional[Camera] = None) -> Framebuffer:
        camera = camera or scene.fit_camera()
        fb = Framebuffer(self.width, self.height, background=scene.background)
        light = scene.lights[0] if scene.lights else DirectionalLight()

        light_direction = np.asarray(light.direction)
        for run in runs(scene.actors):
            rasterize(run, camera, fb, light_direction=light_direction)
        for vactor in scene.volume_actors:
            if not vactor.visible:
                continue
            rgba = raycast_volume(
                vactor.volume,
                vactor.transfer,
                camera,
                self.width,
                self.height,
                step_size=vactor.step_size,
                array_name=vactor.array_name,
                depth_limit=fb.depth,
                lighting=vactor.lighting,
                light_direction=tuple(light.direction),
                rays=vactor.rays,
            )
            fb.blend_image(rgba)
        return fb

    def render_stereo(
        self, scene: Scene, camera: Optional[Camera] = None, eye_separation: float = 0.03
    ) -> Tuple[Framebuffer, Framebuffer]:
        """Render a left/right stereo pair (paper: "active and passive 3D
        stereo visualization support")."""
        camera = camera or scene.fit_camera()
        left_cam, right_cam = camera.stereo_pair(eye_separation)
        return self.render(scene, left_cam), self.render(scene, right_cam)
