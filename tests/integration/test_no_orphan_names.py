"""Every name defined under ``src/repro`` is used somewhere.

A function, method or class, public or private (``_name``), that
nothing in ``src/``, ``tests/``, ``examples/``, ``benchmarks/`` or
``docs/`` mentions outside its own ``def``/``class`` line is dead:
delete it rather than carry it.  Dunder methods are exempt: Python
calls them by protocol.  Names are matched as bare identifiers, so a
mention in prose or a same-named method elsewhere counts — the scan
under-reports, it never cries wolf.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "examples", "benchmarks", "docs")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _mentions() -> Counter:
    counts: Counter = Counter()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*"):
            if path.suffix in (".py", ".md"):
                counts.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def _orphans(selected) -> list:
    """``path:line name`` of every definition *selected* keeps that
    nothing mentions beyond its own definitions."""
    defined: Counter = Counter()
    where = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if selected(node.name):
                    defined[node.name] += 1
                    where[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    mentions = _mentions()
    return sorted(
        where[name] + " " + name
        for name, definitions in defined.items()
        if mentions[name] <= definitions
    )


def test_every_public_definition_is_mentioned_elsewhere():
    orphans = _orphans(lambda name: not name.startswith("_"))
    assert orphans == [], "defined and never mentioned again"


def test_every_private_definition_is_mentioned_elsewhere():
    orphans = _orphans(
        lambda name: name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    )
    assert orphans == [], "defined and never mentioned again"
