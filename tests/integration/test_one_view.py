"""What a frame shows is spelled once: the camera fallback and the view.

A frame is drawn through the plot's camera fallback — the frame's
camera, else the plot's own, else its default framing — and that chain
lives in one place, :meth:`Plot3D.resolve_camera
<repro.dv3d.plot.Plot3D.resolve_camera>`.  The serving tier draws
through a :class:`~repro.dv3d.view.View` and never moves a plot's time
index or orbits a camera itself.  This scan fails when a second
spelling comes back under ``src/repro``:

* ``default_camera()`` called anywhere but the resolver, the ``r``
  key's reset to the default framing, and ``CombinedPlot``'s
  delegation to its primary component;
* ``set_time_index(...)`` or ``.orbit(...)`` called from
  ``repro.serving``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module, enclosing function) pairs allowed to call default_camera()
DEFAULT_CAMERA_CALLERS = {
    ("dv3d/plot.py", "resolve_camera"),  # the one fallback chain
    ("dv3d/interaction.py", "handle_key"),  # "r": reset to the default framing
    ("dv3d/combined.py", "default_camera"),  # the primary component's framing
}


def _calls(path: Path):
    """``(enclosing function, called attribute, line)`` of every method call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                found.append((function, child.func.attr, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


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
