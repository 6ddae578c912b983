"""Every file the living docs point at exists.

Scanned: ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, ``docs/*.md``
and the verify skill.  ``ROADMAP.md``, ``CHANGES.md``,
``benchmarks/baselines/E2E_*.md`` and the frozen
``benchmarks/e2e/README.md`` are history — they name files as they were
— and are not scanned.
"""

import glob
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    + list((ROOT / "docs").glob("*.md"))
)

#: ``[text](target)`` — the target up to a closing paren or a title
_LINK = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)")
#: inline spans and fenced blocks
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
#: a repo path inside code: a top-level directory, a slash, the rest
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|tools|benchmarks|docs|examples)/[\w./*-]*)"
)


def _referenced(doc: Path):
    """(what the doc wrote, the path or glob it must resolve to) pairs."""
    text = doc.read_text(encoding="utf-8")
    for target in _LINK.findall(text):
        if re.match(r"[a-z][a-z0-9+.-]*:|#", target):
            continue  # a URL, or an anchor on the same page
        yield target, doc.parent / target.split("#")[0]
    for code in _CODE.findall(text):
        for token in _PATH.findall(code):
            yield token, ROOT / token.rstrip(".")


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: str(d.relative_to(ROOT)))
def test_every_referenced_path_exists(doc):
    missing = sorted(
        {written for written, path in _referenced(doc) if not glob.glob(str(path))}
    )
    assert missing == [], f"{doc.relative_to(ROOT)} points at missing files"
