"""Reach scan: the ``src/`` functions that no entry point of the system enters.

Runs the entry points a user reaches — the E1–E9 reports and every
registered scenario at quick scale, the ``scenario list/show/run/sweep`` and
``profile`` commands, both blocked sweep directions, every service query op
and centrality measure, one scenario job, every HTTP route, and one
scenario run with ``jobs=2`` that checkpoints its shards and then resumes
from them — with ``sys.setprofile`` and ``threading.setprofile`` active,
then lists every function defined under ``src/repro`` that none of them
entered.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/reach_scan.py

Worker processes are not traced.  The ``jobs=2`` run traces the parent
side of the process pool (``MultiprocessExecutor`` and the shards it
collects), but not what runs in a worker: ``run_unit`` and the shard and
point ``run`` methods it calls count only because the serial runs enter
them too, and a function that only a worker would call cannot show up as
reached.

It prints one ``path:line qualified.name`` line per unreached function, then
``unreached: U of F src/ functions``.  A listed function is a candidate for
deletion, not a verdict: reprs, protocol stubs and error paths show up too,
so check a function's callers and tests before removing it.  The scan takes about 4 s
on a 2-vCPU Xeon box.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any

SRC = (Path(__file__).resolve().parent.parent / "src" / "repro").resolve()


def defined_functions() -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src/repro``: ``(path, first line) → qualified name``.

    The first line is the one a code object reports as ``co_firstlineno``:
    the first decorator's line when the function is decorated.
    """
    functions: dict[tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    functions[(str(path), first)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


class Recorder:
    """The code objects entered on every thread while the profile hook is set."""

    def __init__(self) -> None:
        self.codes: set[Any] = set()

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "Recorder":
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc_info: object) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def entered(self) -> set[tuple[str, int]]:
        return {
            (str(Path(code.co_filename).resolve()), code.co_firstlineno)
            for code in self.codes
        }


def _cli(argv: list[str]) -> None:
    from repro.experiments.registry import main

    main(argv)


def run_cli_commands(work: Path) -> None:
    """The E1–E9 reports and the ``scenario`` and ``profile`` commands."""
    _cli(["--scale", "quick", "--seed", "5", "--quiet", "--telemetry", "summary",
          "--output", str(work / "EXPERIMENTS.md")])
    _cli(["scenario", "list"])
    _cli(["scenario", "show", "E5"])
    _cli(["scenario", "run", "hypercube-urtn-diameter", "--scale", "quick",
          "--seed", "5", "--tile-size", "8", "--records", str(work / "records.json"),
          "--telemetry", f"jsonl:{work / 'trace.jsonl'}"])
    _cli(["scenario", "sweep", "er-fcase-reachability", "--scale", "quick",
          "--seed", "5", "--set", "n=24", "--set", "r=1,4"])
    _cli(["profile", "E3", "--scale", "quick"])


def run_scenarios() -> None:
    """Every registered scenario, at quick scale where it has one."""
    from repro.scenarios import iter_scenarios, run_scenario

    for scenario in iter_scenarios():
        scales = scenario.scale_names
        run_scenario(scenario, scale="quick" if "quick" in scales else scales[0])


def run_parallel(work: Path) -> None:
    """One scenario over a pool of two workers, then resumed from its checkpoint."""
    from repro.scenarios import get_scenario, run_scenario

    for _ in range(2):
        run_scenario(
            get_scenario("E1"), scale="quick", seed=5, jobs=2,
            checkpoint_dir=work / "checkpoint",
        )


def run_blocked_sweeps() -> None:
    """One blocked all-pairs sweep in each direction."""
    from repro import grid_graph, uniform_random_labels
    from repro.core.blocked_sweeps import blocked_sweep_summary

    network = uniform_random_labels(grid_graph(8, 8), lifetime=64, seed=0)
    for direction in ("forward", "reverse"):
        blocked_sweep_summary(network, tile_size=16, direction=direction)


def _call(base: str, method: str, path: str, payload: Any = None) -> Any:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read())


def run_service(work: Path) -> None:
    """Every HTTP route, every query op and centrality measure, one job."""
    from repro.service import CENTRALITY_MEASURES, QUERY_OPS, serve

    server = serve(data_dir=str(work / "service"), port=0).start()
    try:
        base = server.url
        _call(base, "GET", "/healthz")
        instance = {
            "graph": {"family": "clique", "params": {"n": 16, "directed": True}},
            "labels": {"model": "uniform", "lifetime": 16},
            "seed": 3,
        }
        for op in QUERY_OPS:
            measures = CENTRALITY_MEASURES if op == "centrality" else (None,)
            for measure in measures:
                body = {"op": op, "source": 0, "target": 5, **instance}
                if measure is not None:
                    body["measure"] = measure
                _call(base, "POST", "/query", body)
        _call(base, "POST", "/query", {"op": "no-such-op", **instance})
        job = _call(base, "POST", "/scenarios",
                    {"scenario": "er-fcase-reachability", "scale": "quick"})
        deadline = time.monotonic() + 300
        state = job["state"]
        while state not in ("done", "failed") and time.monotonic() < deadline:
            time.sleep(0.05)
            state = _call(base, "GET", f"/jobs/{job['id']}")["state"]
        if state != "done":
            raise RuntimeError(f"the scenario job ended in state {state!r}")
        _call(base, "GET", f"/results/{job['fingerprint']}")
        _call(base, "POST", f"/jobs/{job['id']}/cancel")
        _call(base, "GET", "/stats")
        _call(base, "GET", "/no-such-route")
        _call(base, "POST", "/no-such-route", {})
    finally:
        server.stop()


def scan() -> tuple[dict[tuple[str, int], str], set[tuple[str, int]]]:
    """Run every entry point under the profile hook; return (defined, entered)."""
    functions = defined_functions()
    with tempfile.TemporaryDirectory(prefix="reach-scan-") as tmp:
        work = Path(tmp)
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            with Recorder() as recorder:
                run_cli_commands(work)
                run_scenarios()
                run_parallel(work)
                run_blocked_sweeps()
                run_service(work)
    return functions, recorder.entered()


def main() -> int:
    functions, entered = scan()
    unreached = sorted(key for key in functions if key not in entered)
    for path, line in unreached:
        relative = Path(path).relative_to(SRC.parent)
        print(f"{relative}:{line} {functions[(path, line)]}")
    print(f"unreached: {len(unreached)} of {len(functions)} src/ functions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
