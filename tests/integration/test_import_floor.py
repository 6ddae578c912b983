"""The process floor stays lean, and the layers stay apart.

No heavy scipy subpackage is imported, and no kernel package imports
the result cache.

Every wall cell, GUI and serving process pays for what importing the
application pulls in before it draws a frame.  ``scipy.stats`` alone
was 45 MB and 0.6 s of that floor, dragging in ``scipy.optimize``,
``scipy.spatial``, ``scipy.sparse`` and ``scipy.linalg`` behind it.  The
tree needs none of them (``scipy.special`` serves the one t-test), so
this test names whichever import chain brings one back.  The result
cache (``repro.cache``) belongs to the serving tier alone, so the
rendering, data, analysis, workflow and DV3D packages must load
without it.

Each check runs in a fresh interpreter: the pytest process may long
since have imported any of them for another test.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg")


def _import_tree(stderr: str) -> list[tuple[int, str]]:
    """``(depth, module)`` per ``-X importtime`` line, in printed order.

    A module is printed after everything it imported, indented two
    spaces per level, so its importer is the next line one level up.
    """
    tree = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.rstrip().endswith("imported package"):
            continue
        name = line.rsplit("|", 1)[1]
        stripped = name.lstrip(" ")
        tree.append(((len(name) - len(stripped) - 1) // 2, stripped.strip()))
    return tree


def _culprit(tree: list[tuple[int, str]], package: str) -> str:
    """The import chain down to the first line inside *package*.

    ``-X importtime`` does not print every package (``scipy.stats``
    itself has no line), so the chain ends at its first printed module.
    """
    inside = [
        i for i, (_, name) in enumerate(tree)
        if name == package or name.startswith(package + ".")
    ]
    if not inside:
        return f"{package} (no importtime line)"
    depth, name = tree[inside[0]]
    chain = [name]
    for later_depth, later in tree[inside[0] + 1:]:
        if later_depth < depth:
            chain.append(later)
            depth = later_depth
    return " -> ".join(reversed(chain))


def test_chain_follows_the_indentation():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy.stats._x",
        "import time:        10 |         20 |   repro.cdat.composites",
        "import time:        10 |         10 |   numpy",
        "import time:        10 |         50 | repro.cdat",
    ])
    tree = _import_tree(stderr)
    assert tree == [
        (2, "scipy.stats._x"), (1, "repro.cdat.composites"), (1, "numpy"), (0, "repro.cdat"),
    ]
    assert _culprit(tree, "scipy.stats") == (
        "repro.cdat -> repro.cdat.composites -> scipy.stats._x"
    )
    assert _culprit(tree, "scipy.sparse") == "scipy.sparse (no importtime line)"


def _fresh_import(code: str) -> tuple[list[str], list[tuple[int, str]]]:
    """Run *code* in a fresh ``-X importtime`` interpreter: the module
    names it prints, and its import tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(repro.__path__[0]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split(), _import_tree(done.stderr)


def test_app_and_serving_import_no_heavy_scipy_subpackage():
    # the scipy subpackages repro does use come first: whatever they pull
    # in themselves depends on the scipy release (before 1.17,
    # scipy.special imported scipy.linalg), so only what repro adds counts
    imported, tree = _fresh_import(
        "import sys; import scipy.ndimage, scipy.special; before = set(sys.modules); "
        "import repro.app, repro.serving; "
        f"print(*sorted(set({HEAVY!r}) & (set(sys.modules) - before)))"
    )
    culprits = [_culprit(tree, package) for package in imported]
    assert imported == [], "imported by:\n" + "\n".join(culprits)


def test_kernels_do_not_import_the_result_cache():
    # the result cache is the serving tier's store, handed to it: no
    # kernel may reach one on its own
    imported, tree = _fresh_import(
        "import sys; "
        "import repro.rendering, repro.cdms, repro.cdat, repro.workflow, repro.dv3d; "
        "print(*sorted(m for m in sys.modules "
        "if m == 'repro.cache' or m.startswith('repro.cache.')))"
    )
    assert imported == [], "imported by:\n" + _culprit(tree, "repro.cache")
