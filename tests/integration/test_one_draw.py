"""A workflow builds a cell and a ``View`` draws it, once per frame.

Executing a DV3D workflow draws nothing: the cell module outputs only
its live cell, and the host that shows the cell — the serving backend,
a spreadsheet slot, a wall tile, the control node's mirror — draws it
through a :class:`~repro.dv3d.view.View`.  These count
``Renderer.render`` calls, with their sizes, through each host.
"""

import pytest

from repro.app.application import Application
from repro.dv3d.view import View
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.rendering.scene import Renderer
from repro.serving.backend import AppBackend
from repro.serving.request import Request
from repro.workflow.pipeline import Pipeline
from tests.conftest import SMALL, build_cell_chain


@pytest.fixture()
def draws(monkeypatch):
    """The ``(width, height)`` of every ``Renderer.render`` call, in order."""
    sizes = []
    render = Renderer.render

    def counted(self, *args, **kwargs):
        sizes.append((self.width, self.height))
        return render(self, *args, **kwargs)

    monkeypatch.setattr(Renderer, "render", counted)
    return sizes


def test_a_scene_open_draws_once(draws):
    params = {"template": "Slicer", "variables": {"variable": "ta"}, "size": dict(SMALL),
              "width": 48, "height": 36, "timestep": 2, "azimuth": 30.0}
    payload = AppBackend()(Request(params=params), False)
    assert payload.startswith(b"P6\n48 36\n255\n")
    assert draws == [(48, 36)]


def test_executing_a_slot_draws_nothing_until_its_cell_is_drawn(registry, draws):
    app = Application(registry)
    app.new_project("draws")
    app.create_plot(
        "Slicer", "main", (0, 0),
        dataset_source="synthetic_reanalysis", variables={"variable": "ta"},
        size=dict(SMALL), cell_params={"width": 40, "height": 30}, execute=False,
    )
    cell = app.project.execute_cell("main", 0, 0)
    assert draws == []
    View(40, 30).draw(cell)
    assert draws == [(40, 30)]


def test_a_wall_draws_each_mirror_cell_and_each_tile_once(registry, draws):
    pipeline = Pipeline(registry)
    for _ in range(3):
        build_cell_chain(pipeline, width=64, height=48)
    hw = InProcessHyperwall(
        pipeline, WallGeometry(3, 1, tile_width=64, tile_height=48), reduction=2
    )
    out = hw.execute_all()
    # the mirror first, at its reduced size, then the tiles at tile size
    assert draws == [(32, 24)] * 3 + [(64, 48)] * 3
    assert list(out["server"]["image_shapes"].values()) == [[24, 32, 3]] * 3
    assert [r["image_shape"] for r in out["clients"]] == [[48, 64, 3]] * 3
