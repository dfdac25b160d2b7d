"""The numbers in EXPERIMENTS.md and README.md are CLI output, kept current.

Every number the repo produces for a paper artifact sits in a marker
block whose body is the verbatim stdout of ``python -m repro <argv>``::

    <!-- repro: table3 --measure -->
    ```text
    ...
    ```
    <!-- /repro -->

The test runs each argv in-process and fails when a block differs from
what the command prints today.  After an intentional output change,
rewrite every block with::

    PYTHONPATH=src python tests/test_experiments_doc.py
"""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = (ROOT / "EXPERIMENTS.md", ROOT / "README.md")
OPENS = re.compile(r"^<!-- repro: ", re.M)
BLOCK = re.compile(
    r"(?P<head>^<!-- repro: (?P<argv>[^\n]*?) -->\n```text\n)"
    r"(?P<body>.*?)"
    r"(?P<tail>```\n<!-- /repro -->)",
    re.S | re.M,
)


@cache
def run(argv: str) -> str:
    """What ``python -m repro <argv>`` prints, run in this process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(argv))
    assert code == 0, f"repro {argv} exited {code}"
    return out.getvalue()


BLOCKS = [
    pytest.param(m["argv"], m["body"], id=f"{doc.name}: {m['argv']}")
    for doc in DOCS
    for m in BLOCK.finditer(doc.read_text())
]


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_every_marker_is_a_well_formed_block(doc):
    text = doc.read_text()
    assert len(BLOCK.findall(text)) == len(OPENS.findall(text)) > 0


@pytest.mark.parametrize("argv, body", BLOCKS)
def test_block_is_current_cli_output(argv, body):
    assert body == run(argv), (
        f"the `repro {argv}` block is stale; regenerate it with "
        "`PYTHONPATH=src python tests/test_experiments_doc.py`"
    )


if __name__ == "__main__":
    for doc in DOCS:
        doc.write_text(BLOCK.sub(
            lambda m: m["head"] + run(m["argv"]) + m["tail"], doc.read_text()
        ))
