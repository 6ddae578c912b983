"""Every subpackage is importable first, in a fresh interpreter.

An import cycle only bites the module that happens to be imported
first, and the test session has long since imported everything — so
each subpackage gets its own interpreter.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


def test_subpackages_discovered():
    assert {"cdms", "streaming", "dv3d", "workflow"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_first_import_of_fresh_interpreter(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(repro.__path__[0]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
