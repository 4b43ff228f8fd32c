"""Layering guard: no module under ``src/repro/core/`` imports a layer above it.

The handle, the service, the scenarios and the experiments build on
``repro.core``; an import back into them would close a cycle.  Every import
of every core module, absolute or relative and at any depth, is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = SRC / "repro" / "core"
#: The layers built on ``repro.core``, as package-name prefixes.
UPPER = ("analysis_api", "service", "scenarios", "experiments")
UPPER_LAYERS = [["repro", name] for name in UPPER]


def _upward_imports(source: str, package: str) -> list[str]:
    """Modules imported by ``source``, a module of ``package``, in an upper layer."""
    imported: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = package.split(".")
            parts = anchor[: len(anchor) + 1 - node.level] if node.level else []
            base = ".".join(parts + [node.module] if node.module else parts)
            # ``from pkg import name`` may import the submodule ``pkg.name``.
            imported.update([base] + [f"{base}.{alias.name}" for alias in node.names])
    return sorted(name for name in imported if name.split(".")[:2] in UPPER_LAYERS)


@pytest.mark.parametrize(
    "path", sorted(CORE.rglob("*.py")), ids=lambda p: str(p.relative_to(CORE))
)
def test_core_never_imports_an_upper_layer(path):
    package = ".".join(path.relative_to(SRC).parent.parts)
    assert _upward_imports(path.read_text(encoding="utf-8"), package) == []


@pytest.mark.parametrize(
    "statement",
    [
        "from ..analysis_api.handle import NetworkAnalysis",
        "from .. import service",
        "import repro.experiments.registry",
        "from repro import scenarios",
        "def lazy():\n    from ..scenarios.pipeline import ScenarioTrial",
    ],
)
def test_guard_catches_upward_imports(statement):
    assert _upward_imports(statement, "repro.core")
