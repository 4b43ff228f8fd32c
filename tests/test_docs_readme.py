"""Docs check: every fenced ``python`` block in README.md and docs/*.md executes.

Each block runs dedented (a block may sit indented under a bullet) in a fresh
interpreter whose working directory is a new temporary one, so blocks must be
self-contained — exactly what a reader copy-pasting one expects — and
nothing a block writes or registers reaches a later test.  ``bash`` blocks
are not run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: Path) -> list[str]:
    return [textwrap.dedent(block) for block in _FENCE.findall(path.read_text())]


_BLOCKS = {
    f"{path.relative_to(ROOT)}:block{index}": block
    for path in [README, *sorted((ROOT / "docs").glob("*.md"))]
    for index, block in enumerate(_python_blocks(path))
}


def test_readme_exists_and_has_python_blocks():
    assert README.is_file(), "the repository must ship a root README.md"
    assert len(_python_blocks(README)) >= 2, "README should contain runnable quickstart blocks"


@pytest.mark.parametrize("block_id", list(_BLOCKS))
def test_python_block_executes(block_id, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _BLOCKS[block_id]],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, f"{block_id} failed:\n{result.stderr}"


def test_readme_mentions_docs():
    text = README.read_text()
    for path in (
        "docs/performance.md",
        "docs/paper_mapping.md",
        "docs/parallel_engine.md",
        "examples",
    ):
        assert path in text, f"README should link {path}"
        assert (README.parent / path).exists(), f"README links missing {path}"
