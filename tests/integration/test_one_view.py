"""What a frame shows is spelled once: the camera fallback and the view.

A frame is drawn through the plot's camera fallback — the frame's
camera, else the plot's own, else its default framing — and that chain
lives in one place, :meth:`Plot3D.resolve_camera
<repro.dv3d.plot.Plot3D.resolve_camera>`.  The serving tier draws
through a :class:`~repro.dv3d.view.View` and never moves a plot's time
index or orbits a camera itself.  This scan fails when a second
spelling comes back under ``src/repro``:

* ``default_camera()`` called anywhere but the resolver and the ``r``
  key's reset to the default framing;
* ``set_time_index(...)`` or ``.orbit(...)`` called from
  ``repro.serving``;
* a cell or a plot drawn anywhere but :meth:`View.draw
  <repro.dv3d.view.View.draw>`: a ``.render(...)`` call outside it and
  the renderer calls of ``Plot3D.render``, ``DV3DCell.render`` and
  ``Renderer.render_stereo``, or any ``.render(...)``/``.draw(...)``
  inside a workflow module's ``compute``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module, enclosing function) pairs allowed to call default_camera()
DEFAULT_CAMERA_CALLERS = {
    ("dv3d/plot.py", "resolve_camera"),  # the one fallback chain
    ("dv3d/interaction.py", "handle_key"),  # "r": reset to the default framing
}


#: (module, enclosing function) pairs allowed to call ``.render(...)``
RENDER_CALLERS = {
    ("dv3d/view.py", "draw"),  # View.draw: the one draw of a cell or a plot
    ("dv3d/plot.py", "render"),  # Plot3D.render's own Renderer call
    ("dv3d/cell.py", "render"),  # DV3DCell.render's own Renderer call
    ("rendering/scene.py", "render_stereo"),  # two Renderer draws, one per eye
}

#: the three draws that bypassed View.draw before the cell module
#: stopped rendering, reduced to what the scan reads
BYPASSING_DRAWS = {
    "dv3d/package.py": """
class DV3DCellModule(Module):
    def compute(self, inputs):
        cell = DV3DCell(inputs["plot"])
        image = cell.render(
            int(self.parameter_values["width"]), int(self.parameter_values["height"])
        ).to_uint8()
        return {"cell": cell, "image": image}
""",
    "hyperwall/client.py": """
class DisplayNode:
    def _render(self, payload, start, **extra):
        with obs.span("hyperwall.client.render"):
            image = self.cells[cell_id].render(width, height).to_uint8()
""",
    "hyperwall/server.py": """
class ControlNode:
    def _degraded_report(self, cell_id):
        with obs.span("hyperwall.server.degraded_render", cell=cell_id):
            image = cell.render(width, height).to_uint8()
""",
}


def _calls(path: Path):
    """``(enclosing function, called attribute, line)`` of every method call."""
    return _calls_in(path.read_text(encoding="utf-8"))


def _calls_in(source: str):
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                found.append((function, child.func.attr, child.lineno))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def _draw_strays(module: str, source: str):
    """The draws *source* (the file *module* under ``src/repro``) makes
    outside :meth:`View.draw`."""
    strays = []
    for function, attr, line in _calls_in(source):
        if function == "compute" and attr in ("render", "draw"):
            strays.append(f"{module}:{line} {attr}() in compute()")
        elif attr == "render" and (module, function) not in RENDER_CALLERS:
            strays.append(f"{module}:{line} render() in {function}()")
    return strays


def test_the_camera_fallback_is_spelled_once():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function, attr, line in _calls(path):
            if attr == "default_camera" and (module, function) not in DEFAULT_CAMERA_CALLERS:
                strays.append(f"{module}:{line} in {function}()")
    assert strays == [], "use Plot3D.resolve_camera() or a View, not default_camera()"


def test_the_serving_tier_draws_through_a_view():
    strays = []
    for path in sorted((SRC / "serving").rglob("*.py")):
        for function, attr, line in _calls(path):
            if attr in ("set_time_index", "orbit"):
                strays.append(f"serving/{path.name}:{line} {attr}() in {function}()")
    assert strays == [], "the serving tier draws View(...).draw(cell), nothing else"


def test_the_scan_sees_the_spellings_it_forbids():
    """The scan finds the calls it exists to find (so a silent parse
    change cannot make it pass vacuously)."""
    plot_calls = _calls(SRC / "dv3d" / "plot.py")
    assert ("resolve_camera", "default_camera") in {(f, a) for f, a, _ in plot_calls}
    view_calls = {(f, a) for f, a, _ in _calls(SRC / "dv3d" / "view.py")}
    assert {("draw", "set_time_index"), ("draw", "orbit"), ("draw", "resolve_camera")} <= view_calls


def test_every_frame_is_drawn_by_a_view():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        strays += _draw_strays(module, path.read_text(encoding="utf-8"))
    assert strays == [], "draw a cell or a plot with View(...).draw(target); no module draws"


def test_the_draw_scan_finds_the_draws_that_bypassed_the_view():
    found = [stray for module, source in BYPASSING_DRAWS.items()
             for stray in _draw_strays(module, source)]
    assert found == [
        "dv3d/package.py:5 render() in compute()",
        "hyperwall/client.py:5 render() in _render()",
        "hyperwall/server.py:5 render() in _degraded_report()",
    ]
    draws = {(f, a) for f, a, _ in _calls(SRC / "dv3d" / "view.py")}
    assert ("draw", "render") in draws
