"""Layer spans recorded from the benchmark's side of each layer boundary.

The program under test is not edited: :func:`install` replaces the public
functions each layer is reached through with timing wrappers, so a traced run
sees every call into a layer and nothing else changes.  Spans nest per
thread; a span's *self* time is its duration minus the time of the spans
opened inside it, so the self times of all spans add up to at most the wall
clock of the traced region, and the rest is reported as unattributed.

Span names are ``<layer>.<what>``; :data:`LAYERS` lists the layers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: The layers of the program, named by module (see WORKLOADS.md).
LAYERS = (
    "labels",
    "graph",
    "csr",
    "kernel",
    "analysis",
    "blocked",
    "scenario",
    "direct",
    "engine",
    "service",
)

#: ``NetworkAnalysis`` members that only return stored fields; wrapping them
#: would add call overhead without attributing any work.
_TRIVIAL_ANALYSIS_MEMBERS = frozenset({"network", "n", "invalidate"})


class Tracer:
    """Aggregated span times: self and inclusive nanoseconds per span name.

    ``edges[(parent, child)]`` holds the inclusive time of ``child`` spans
    opened directly inside a ``parent`` span, which is how the service
    metrics split a query into network build and handle time.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [name, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            if parent is not None:
                parent[1] += elapsed
            with self._lock:
                self.self_ns[name] += elapsed - frame[1]
                self.inclusive_ns[name] += elapsed
                self.calls[name] += 1
                if parent is not None:
                    self.edges[(parent[0], name)] += elapsed

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer (the part of a span name before the first dot)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + ns / 1e6
        return totals

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e6

    def edge_ms(self, parent: str, child_prefix: str) -> float:
        return (
            sum(
                ns
                for (p, c), ns in self.edges.items()
                if p == parent and c.startswith(child_prefix)
            )
            / 1e6
        )

    def to_state(self) -> dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "inclusive_ns": dict(self.inclusive_ns),
            "calls": dict(self.calls),
            "edges": [[p, c, ns] for (p, c), ns in self.edges.items()],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "Tracer":
        tracer = cls()
        tracer.self_ns.update(state["self_ns"])
        tracer.inclusive_ns.update(state["inclusive_ns"])
        tracer.calls.update(state["calls"])
        for parent, child, ns in state["edges"]:
            tracer.edges[(parent, child)] = ns
        return tracer


def _patch(owner: Any, attr: str, wrapper: Callable[[Callable[..., Any]], Any]) -> None:
    """Replace ``owner.attr`` by ``wrapper(original)``, keeping its descriptor kind."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrapper(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrapper(raw.__func__)))
    elif isinstance(raw, property):
        setattr(owner, attr, property(wrapper(raw.fget), raw.fset, raw.fdel, raw.__doc__))
    else:
        setattr(owner, attr, wrapper(raw))


def _patch_registry(registry: dict[str, Callable[..., Any]], wrapper) -> None:
    for key, fn in list(registry.items()):
        registry[key] = wrapper(fn)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in this process with ``tracer`` spans.

    Module-level functions are patched where their callers look them up:
    ``pipeline`` and ``service.app`` bind ``build_graph`` / ``sample_labels``
    by name at import, and ``TemporalGraph`` imports the CSR builders from
    their modules on first use.
    """
    from repro.analysis_api import handle
    from repro.core import (
        blocked_sweeps,
        dissemination,
        distances,
        reachability,
        reverse_timearc_csr,
        timearc_csr,
    )
    from repro.core.blocked_sweeps import BlockedSummaryAccumulator
    from repro.core.kernels.numpy_backend import NumpyBackend
    from repro.core.temporal_graph import TemporalGraph
    from repro.scenarios import metrics, pipeline
    from repro.service import app, cache, jobs, store

    def named(name: str):
        return lambda fn: tracer.wrap(name, fn)

    _patch(pipeline, "sample_labels", named("labels.sample"))
    _patch(app, "sample_labels", named("labels.sample"))
    _patch(TemporalGraph, "from_label_matrix", named("labels.from_label_matrix"))
    _patch(pipeline, "build_graph", named("graph.build"))
    _patch(app, "build_graph", named("graph.build"))
    _patch(timearc_csr, "build_timearc_csr", named("csr.forward"))
    _patch(reverse_timearc_csr, "build_reverse_timearc_csr", named("csr.reverse"))
    _patch(NumpyBackend, "forward_sweep", named("kernel.forward"))
    _patch(NumpyBackend, "reverse_sweep", named("kernel.reverse"))
    # The sweep entry points (state set-up around the backend call), where
    # each caller module bound them at import.
    for module in (handle, blocked_sweeps, distances, dissemination, reachability):
        for attr in ("earliest_arrival_matrix", "earliest_arrival_times"):
            if hasattr(module, attr):
                _patch(module, attr, named("kernel.forward.entry"))
        for attr in ("latest_departure_matrix", "latest_departure_times"):
            if hasattr(module, attr):
                _patch(module, attr, named("kernel.reverse.entry"))
    for attr, member in list(vars(handle.NetworkAnalysis).items()):
        if attr.startswith("_") or attr in _TRIVIAL_ANALYSIS_MEMBERS:
            continue
        if callable(member) or isinstance(member, property):
            _patch(handle.NetworkAnalysis, attr, named(f"analysis.{attr}"))
    _patch(BlockedSummaryAccumulator, "add_tile", named("blocked.reduce"))
    _patch(pipeline.ScenarioTrial, "__call__", named("scenario.trial"))
    _patch_registry(metrics.METRICS, named("scenario.metric"))
    _patch_registry(metrics.DIRECT_METRICS, named("direct.point"))
    _patch(jobs, "run_scenario", named("engine.run_scenario"))
    for attr in ("query", "submit_scenario", "job_status", "result", "stats"):
        _patch(app.ServiceApp, attr, named(f"service.app.{attr}"))
    for attr in ("get_by_alias", "get_or_create", "alias"):
        _patch(cache.AnalysisCache, attr, named("service.cache"))
    for attr in ("begin_run", "complete_run", "fail_run", "reset_run", "get_run", "counts"):
        _patch(store.ArtifactStore, attr, named("service.store"))
