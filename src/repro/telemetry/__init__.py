"""repro.telemetry — zero-dependency instrumentation for every layer.

The subsystem answers the questions the stack could not before: how many CSR
sweeps did a scenario run, what fraction of analysis-artifact requests were
cache hits, where did the wall-clock go per shard.  It is **off by default**:
with no recorder active, every instrumentation site reduces to one
:func:`active` call and a truthiness check (gated by
``benchmarks/bench_telemetry.py``), so the kernels pay nothing for being
observable.

Quickstart
----------
>>> from repro import NetworkAnalysis, complete_graph, normalized_urtn, telemetry
>>> network = normalized_urtn(complete_graph(16, directed=True), seed=0)
>>> with telemetry.session() as rec:
...     _ = NetworkAnalysis(network).summary
>>> rec.counters["analysis.compute.arrival_matrix"]
1
>>> rec.counters["kernel.forward.sweeps"]
1

Surface
-------
:func:`session` opens a recording scope (optionally flushing to sinks on
close); :func:`span` / :func:`counter` / :func:`observe_ms` are the
module-level emit helpers; :func:`active` is the hot-path enablement check;
:func:`attach` composes a scoped probe with an outer session and
:func:`isolated` captures a region of the calling thread into exactly one
recorder (the engine workers' transport mode).  See ``docs/observability.md`` for the full tour,
the naming scheme and the CLI flags (``--telemetry``, ``repro-experiments
profile``).
"""

from .recorder import (
    SpanNode,
    TelemetryRecorder,
    TimingStats,
    active,
    attach,
    counter,
    isolated,
    observe_ms,
    session,
    span,
)
from .report import format_layer_report
from .sinks import JsonlSink, StderrSummarySink, TelemetrySink, read_jsonl

__all__ = [
    "SpanNode",
    "TimingStats",
    "TelemetryRecorder",
    "TelemetrySink",
    "JsonlSink",
    "StderrSummarySink",
    "active",
    "attach",
    "counter",
    "format_layer_report",
    "isolated",
    "observe_ms",
    "read_jsonl",
    "session",
    "span",
]
