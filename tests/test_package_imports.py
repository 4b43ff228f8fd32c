"""``import repro`` needs numpy and scipy alone.

networkx is a test-only oracle and ``scipy.stats`` a heavy import that the
package does not need: a fresh interpreter that cannot find networkx must
still import the package, and load neither module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from importlib.abc import MetaPathFinder


class NoNetworkx(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, NoNetworkx())
import repro

print(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "networkx"
    or name == "scipy.stats"
    or name.startswith("scipy.stats.")
))
"""


def test_import_loads_neither_networkx_nor_scipy_stats():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
