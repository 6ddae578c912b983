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

And so is a local a function binds by plain assignment (``x = ...``,
``x: T = ...``, ``(x := ...)``, ``except E as x``) and never reads,
anywhere under ``src``, ``tests``, ``benchmarks`` or ``tools`` — the
offline twin of ruff's F841.  Only the function's own scope binds: a
class body inside a function defines attributes, not locals.  A read
anywhere in the function, a nested scope's included, counts, as does a
``global``/``nonlocal`` declaration; names starting with ``_`` are
throwaways, and a function that calls ``locals()`` is skipped.

And so is a line ending in spaces or tabs (ruff's W291, and W293 on a
blank line) or a string literal with an invalid escape sequence (W605,
``"\\d"`` unraw: the compiler warns ``DeprecationWarning`` on 3.11 and
``SyntaxWarning`` on 3.12), in any Python file under ``src``,
``tests``, ``benchmarks`` or ``tools`` — the offline twins of CI's
``lint`` job.
"""

import ast
import re
import warnings
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_scope(node):
    """The nodes under *node* that bind in its scope: nested
    functions, lambdas and class bodies are their own."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            yield from _own_scope(child)


def _unused_locals(path: Path) -> list:
    unused = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, _FUNCTIONS):
            continue
        bound = {}
        for node in _own_scope(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.NamedExpr):
                targets = [node.target]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
                continue
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, target.lineno)
        read = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        if "locals" in read:
            continue
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items()
                   if name not in read and not name.startswith("_")]
    return unused


def test_every_local_is_read():
    unused = [entry for tree in ("src", "tests", "benchmarks", "tools")
              for path in sorted((ROOT / tree).rglob("*.py"))
              for entry in _unused_locals(path)]
    assert unused == [], "assigned and never read"


_LINTED = ("src", "tests", "benchmarks", "tools")


def _python_files():
    return [path for tree in _LINTED for path in sorted((ROOT / tree).rglob("*.py"))]


def _trailing_whitespace(source: str, name: str) -> list:
    return [f"{name}:{number}" for number, line in enumerate(source.split("\n"), 1)
            if line.rstrip("\r").endswith((" ", "\t"))]


def test_no_line_ends_in_whitespace():
    trailing = [entry for path in _python_files()
                for entry in _trailing_whitespace(path.read_text(encoding="utf-8"),
                                                  str(path.relative_to(ROOT)))]
    assert trailing == [], "trailing whitespace (W291/W293)"


def _invalid_escapes(source: str, name: str) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compile(source, name, "exec")
    return [f"{name}:{w.lineno} {w.message}" for w in caught
            if "invalid escape sequence" in str(w.message)]


def test_no_string_has_an_invalid_escape_sequence():
    invalid = [entry for path in _python_files()
               for entry in _invalid_escapes(path.read_text(encoding="utf-8"),
                                             str(path.relative_to(ROOT)))]
    assert invalid == [], "invalid escape sequence (W605)"


def test_the_lint_twins_see_what_they_look_for():
    """Each twin finds its fault in a line made to have it, so a scan
    that stopped reading cannot pass vacuously."""
    assert _invalid_escapes('pattern = "\\d+"\nraw = r"\\d+"\n', "probe.py") == [
        "probe.py:1 invalid escape sequence '\\d'"]
    assert _trailing_whitespace("x = 1 \r\n\n\t\ny = 2\r\n", "probe.py") == [
        "probe.py:1", "probe.py:3"]
    assert _python_files() and all(path.suffix == ".py" for path in _python_files())
