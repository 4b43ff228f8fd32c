"""Shared configuration for the benchmark harness.

Every experiment benchmark module regenerates one experiment of
``docs/paper_mapping.md`` (E1 … E9) at its ``quick`` preset — the measured
rows are attached to the pytest-benchmark ``extra_info`` so they appear in
``--benchmark-json`` output — plus micro-benchmarks of the kernels that
dominate that experiment's runtime.

Machine-readable results
------------------------
Every bench run leaves JSON behind in ``benchmarks/results/`` (git-ignored):

* :func:`write_perf_record` / the ``perf_record`` fixture — the explicit path
  used by the hand-timed acceptance gates (speedups, telemetry overhead) to
  persist exactly the numbers their assertions were judged on;
* :func:`pytest_sessionfinish` — a defensive sweep that dumps the
  pytest-benchmark statistics of *every* collected benchmark, grouped per
  bench module, so modules without a hand-timed gate still emit records.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any

import pytest

#: Where every benchmark drops its machine-readable output.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _git_sha() -> str:
    """Short commit id of the tree being measured (best effort)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def write_perf_record(name: str, **fields: Any) -> Path:
    """Persist one perf record as ``benchmarks/results/<name>.json``.

    ``fields`` is free-form (timings, speedups, sizes, pass/fail) but must be
    JSON-serialisable.  The helper stamps the record with the commit id and a
    wall-clock timestamp so results from different runs can be told apart.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "name": name,
        "git_sha": _git_sha(),
        "unix_time": time.time(),
        **fields,
    }
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def perf_record(request):
    """Callable fixture: ``perf_record(speedup=3.4, ...)`` → JSON on disk.

    Defaults the record name to the requesting test's name; pass ``name=`` to
    override (e.g. to keep one stable filename across parametrizations).
    """

    def _record(name: str | None = None, **fields: Any) -> Path:
        return write_perf_record(name or request.node.name, **fields)

    return _record


def pytest_collection_modifyitems(config, items):
    """Benchmarks are only meaningful with --benchmark-only / --benchmark-enable."""
    del config, items


def pytest_sessionfinish(session, exitstatus):
    """Dump pytest-benchmark stats per bench module into ``results/``.

    Defensive by design: pytest-benchmark's internals are not a public API,
    so every attribute access is guarded and a failure to dump must never
    turn a green bench session red.
    """
    del exitstatus
    try:
        benchmarks = getattr(
            getattr(session.config, "_benchmarksession", None), "benchmarks", None
        )
        if not benchmarks:
            return
        by_module: dict[str, list[dict[str, Any]]] = {}
        for bench in benchmarks:
            fullname = getattr(bench, "fullname", "") or ""
            module = Path(fullname.split("::", 1)[0]).stem or "unknown"
            stats = getattr(bench, "stats", None)
            entry: dict[str, Any] = {
                "test": getattr(bench, "name", fullname),
                "group": getattr(bench, "group", None),
            }
            for field in ("min", "max", "mean", "median", "stddev", "rounds"):
                value = getattr(stats, field, None)
                if value is not None:
                    entry[field] = value
            extra = getattr(bench, "extra_info", None)
            if extra:
                entry["extra_info"] = dict(extra)
            by_module.setdefault(module, []).append(entry)
        for module, entries in by_module.items():
            write_perf_record(module, benchmarks=entries)
    except Exception:  # pragma: no cover - dump is strictly best-effort
        pass


@pytest.fixture
def attach_report():
    """Helper: copy the headline numbers of an ExperimentReport into extra_info."""

    def _attach(benchmark, report):
        benchmark.extra_info["experiment"] = report.experiment_id
        benchmark.extra_info["consistent_with_paper"] = report.consistent
        benchmark.extra_info["rows"] = len(report.records)
        return report

    return _attach
