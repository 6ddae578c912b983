"""Every metric ``repro.serving`` emits by a literal name is documented.

The serving tier's names are listed once, in ``docs/observability.md``;
a counter, gauge or histogram added (or renamed) without its line there
fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KINDS = {"counter", "gauge", "histogram"}


def emitted_names():
    """``(kind, name, where)`` of each ``obs.<kind>("literal", ...)`` call."""
    for path in sorted((ROOT / "src" / "repro" / "serving").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if not (func.attr in KINDS and isinstance(func.value, ast.Name) and func.value.id == "obs"):
                continue
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
                yield func.attr, node.args[0].value, f"{path.name}:{node.lineno}"


def test_every_literal_serving_metric_is_documented():
    doc = (ROOT / "docs" / "observability.md").read_text()
    found = list(emitted_names())
    assert {"serving.requests", "serving.outcome", "serving.latency.seconds"} <= {n for _, n, _ in found}
    missing = [f"{kind} {name} ({where})" for kind, name, where in found if f"`{name}" not in doc]
    assert not missing, f"not in docs/observability.md: {missing}"
