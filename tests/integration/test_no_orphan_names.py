"""Every public name defined under ``src/repro`` is used somewhere.

A public function, method or class that nothing in ``src/``, ``tests/``,
``examples/``, ``benchmarks/`` or ``docs/`` mentions outside its own
``def``/``class`` line is dead: delete it rather than carry it.  Names
are matched as bare identifiers, so a mention in prose or a same-named
method elsewhere counts — the scan under-reports, it never cries wolf.
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


def test_every_public_definition_is_mentioned_elsewhere():
    defined: Counter = Counter()
    where = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] += 1
                    where[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    mentions = _mentions()
    orphans = sorted(
        where[name] + " " + name
        for name, definitions in defined.items()
        if mentions[name] <= definitions
    )
    assert orphans == [], "defined and never mentioned again"
