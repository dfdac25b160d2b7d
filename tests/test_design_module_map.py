"""DESIGN.md's module map lists exactly the modules under ``src/repro``.

The map is the fenced block that starts with ``src/repro/``: a line
``  name/   a.py b.py`` opens a package, an indented line with no
package name continues the one above, and a line of bare files lists
the top-level modules.  Package ``__init__.py`` files are implied.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _listed() -> set[str]:
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("```\nsrc/repro/\n", 1)[1].split("\ntests/", 1)[0]
    listed: set[str] = set()
    package = ""
    for line in block.splitlines():
        head = re.match(r"  (\w+)/\s+", line)
        if head:
            package, line = head.group(1) + "/", line[head.end():]
        elif not line.startswith(" " * 5):
            package = ""
        listed.update(package + name for name in line.split())
    return listed


def _on_disk() -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_listed_module_exists():
    assert sorted(_listed() - _on_disk()) == []


def test_every_module_is_listed():
    assert sorted(_on_disk() - _listed()) == []
