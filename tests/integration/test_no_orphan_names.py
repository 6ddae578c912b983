"""Every name defined under ``src/repro`` is used somewhere.

A function, method or class, public or private (``_name``), that
nothing in ``src/``, ``tests/``, ``examples/``, ``benchmarks/`` or
``docs/`` mentions outside its own ``def``/``class`` line is dead:
delete it rather than carry it.  Dunder methods are exempt: Python
calls them by protocol.  Names are matched as bare identifiers, so a
mention in prose or a same-named method elsewhere counts — the scan
under-reports, it never cries wolf.

So is a name an ``import`` binds in a ``src/repro`` module that the
module never reads (as a name, as the root of an attribute, inside an
annotation, quoted or not) and does not list in ``__all__``.
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


def _annotation_strings(node) -> set:
    """Names read inside the quoted parts of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
            names.update(_annotation_strings(quoted))
    return names


def _unused_imports(path: Path) -> list:
    bound = {}
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        kind = type(node)
        if kind is ast.Name:
            read.add(node.id)
        elif kind is ast.Import or (kind is ast.ImportFrom and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif kind in (ast.arg, ast.AnnAssign) and node.annotation is not None:
            read.update(_annotation_strings(node.annotation))
        elif kind in (ast.FunctionDef, ast.AsyncFunctionDef) and node.returns is not None:
            read.update(_annotation_strings(node.returns))
        elif kind is ast.Assign and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(element.value for element in node.value.elts)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_every_import_is_used():
    unused = [entry for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
              for entry in _unused_imports(path)]
    assert unused == [], "imported and never read"
