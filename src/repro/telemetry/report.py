"""Layered profile report: render a recorder as a per-layer breakdown.

The instrumented layers use dotted-name prefixes as their namespace —
``csr.*`` (layout builds), ``kernel.*`` (CSR sweeps), ``analysis.*`` (the
memoized handle), ``engine.*`` (shards / checkpoints), ``scenario.*`` (trials
and metrics) — so a recorder groups naturally into the stack the ROADMAP
describes.  ``repro-experiments
profile <scenario>`` prints this report.
"""

from __future__ import annotations

from .recorder import TelemetryRecorder

__all__ = ["format_layer_report"]

#: Layer prefixes in stack order (top of the stack first).
LAYERS = (
    ("scenario", "Scenario pipeline"),
    ("engine", "Parallel engine"),
    ("analysis", "Analysis handle (artifact cache)"),
    ("kernel", "CSR sweep kernels"),
    ("csr", "Label-grouped CSR layouts"),
)


def _format_count(value: int) -> str:
    return f"{value:,}"


def _layer_lines(recorder: TelemetryRecorder, prefix: str) -> list[str]:
    lines: list[str] = []
    dotted = prefix + "."
    timing_names = sorted(name for name in recorder.timings if name.startswith(dotted))
    for name in timing_names:
        stats = recorder.timings[name]
        lines.append(
            f"  {name:<44} x{_format_count(stats.count):>8}   "
            f"total {stats.total:>10.2f} ms   mean {stats.mean:>8.3f} ms"
        )
    counter_names = sorted(
        name
        for name in recorder.counters
        if name.startswith(dotted) and name not in recorder.timings
    )
    for name in counter_names:
        lines.append(
            f"  {name:<44} x{_format_count(recorder.counters[name]):>8}"
        )
    return lines


def _cache_lines(recorder: TelemetryRecorder) -> list[str]:
    """The analysis layer's compute-vs-hit table, one row per artifact."""
    computes = {
        name.removeprefix("analysis.compute."): value
        for name, value in recorder.counters.items()
        if name.startswith("analysis.compute.")
    }
    hits = {
        name.removeprefix("analysis.cache_hit."): value
        for name, value in recorder.counters.items()
        if name.startswith("analysis.cache_hit.")
    }
    artifacts = sorted(set(computes) | set(hits))
    if not artifacts:
        return []
    lines = ["  artifact cache (computes / hits / hit rate):"]
    for artifact in artifacts:
        compute_count = computes.get(artifact, 0)
        hit_count = hits.get(artifact, 0)
        total = compute_count + hit_count
        rate = hit_count / total if total else 0.0
        timing = recorder.timings.get(f"analysis.compute_ms.{artifact}")
        compute_ms = f"   compute {timing.total:>9.2f} ms" if timing else ""
        lines.append(
            f"    {artifact:<24} {compute_count:>8} / {hit_count:>8} "
            f"/ {rate:>6.1%}{compute_ms}"
        )
    return lines


def format_layer_report(recorder: TelemetryRecorder, *, title: str = "") -> str:
    """Render the per-layer time/count/cache breakdown as plain text."""
    out: list[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    empty = True
    for prefix, heading in LAYERS:
        lines = _layer_lines(recorder, prefix)
        if prefix == "analysis":
            lines = _cache_lines(recorder) + lines
        if not lines:
            continue
        empty = False
        out.append(f"{heading} [{prefix}.*]")
        out.extend(lines)
        out.append("")
    other = sorted(
        name
        for name in set(recorder.counters) | set(recorder.timings)
        if not any(name.startswith(prefix + ".") for prefix, _ in LAYERS)
    )
    if other:
        empty = False
        out.append("Other")
        for name in other:
            stats = recorder.timings.get(name)
            if stats is not None:
                out.append(
                    f"  {name:<44} x{stats.count:>8,}   "
                    f"total {stats.total:>10.2f} ms   mean {stats.mean:>8.3f} ms"
                )
            else:
                out.append(f"  {name:<44} x{recorder.counters[name]:>8,}")
        out.append("")
    if empty:
        out.append("(no telemetry recorded)")
    return "\n".join(out).rstrip() + "\n"
