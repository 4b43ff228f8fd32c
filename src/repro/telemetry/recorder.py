"""The telemetry recorder: spans, counters and timing statistics in memory.

Everything in this module is plain Python over plain data — no third-party
dependencies, no threads of its own, no I/O — so the instrumentation layer
can sit *below* every other subsystem (the CSR kernels import it) without
creating import cycles or runtime baggage.

Three primitives cover the repository's observability needs:

* **counters** — monotonically accumulated integers keyed by dotted names
  (``kernel.forward.sweeps``, ``analysis.cache_hit.arrival_matrix``).
* **timing statistics** (:class:`TimingStats`) — count / total / mean /
  variance / min / max of millisecond observations, maintained with Welford's
  online update and merged exactly with the Chan et al. parallel rule, so
  worker-side recorders fold into run totals deterministically and
  associatively.
* **spans** (:class:`SpanNode`) — nested wall-clock regions.  Each closed
  span appends a node to the recorder's per-process span tree *and* feeds a
  timing statistic under the span's name, which is what survives cross-process
  merging (trees are per-process artifacts; statistics are mergeable).  Spans
  nest per thread: a closed span lands under the innermost span its own
  thread holds open, or becomes a root.

Activation model
----------------
A stack of recorders (usually empty, occasionally one deep) decides whether
instrumentation is live.  The disabled path — the default — costs one
:func:`active` call and one truthiness check at each instrumentation site,
which is why the instrumented kernels benchmark
indistinguishably from the uninstrumented ones
(``benchmarks/bench_telemetry.py`` gates this).  Instrumented code uses one
of two idioms:

* hot kernels fetch the stack once per call::

      recs = telemetry.active()
      ...
      if recs:
          for rec in recs:
              rec.counter("kernel.forward.sweeps")

* structural code uses the module-level helpers (:func:`span`,
  :func:`counter`, :func:`observe_ms`), which fan out to every active
  recorder and do nothing when the stack is empty.

The stack (rather than a single slot) lets a scoped probe — e.g.
:func:`repro.analysis_api.compute_events` — observe a region of code while an
outer session keeps recording: events are delivered to *all* active
recorders.  Every thread shares one stack, so a session opened on one
thread records what the others do (the service daemon's query and job
threads).  :func:`isolated` gives the *calling thread* a stack of exactly
one recorder; the engine's worker entry uses it so every unit's events (a
shard's, or a direct-mode point's) are captured in a private recorder whose
state is shipped back and merged in unit-index order regardless of executor
(which is what makes telemetry totals bit-identical in counts across worker
counts), while other threads keep recording into the shared stack.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "SpanNode",
    "TimingStats",
    "TelemetryRecorder",
    "active",
    "attach",
    "counter",
    "isolated",
    "observe_ms",
    "session",
    "span",
]


class TimingStats:
    """Mergeable statistics over a stream of millisecond observations.

    ``add`` consumes one observation in O(1) (Welford); ``merge`` combines two
    partials exactly (Chan et al.), so folding worker-side statistics in a
    fixed order reproduces a deterministic result independent of where each
    observation was recorded.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value_ms: float) -> None:
        """Consume one observation (milliseconds)."""
        value_ms = float(value_ms)
        self.count += 1
        delta = value_ms - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value_ms - self.mean)
        if value_ms < self.minimum:
            self.minimum = value_ms
        if value_ms > self.maximum:
            self.maximum = value_ms

    def merge(self, other: "TimingStats") -> None:
        """Fold another partial into this one (exact parallel Welford update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def total(self) -> float:
        """Total observed milliseconds (``count * mean``)."""
        return self.count * self.mean

    @property
    def variance(self) -> float:
        """Population variance of the observations (0.0 for fewer than two)."""
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    def to_state(self) -> dict[str, float]:
        """JSON-able snapshot; :meth:`from_state` round-trips it."""
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "TimingStats":
        """Rebuild from a :meth:`to_state` dictionary."""
        stats = cls()
        stats.count = int(state["count"])
        stats.mean = float(state["mean"])
        stats.m2 = float(state["m2"])
        if stats.count:
            stats.minimum = float(state["min"])
            stats.maximum = float(state["max"])
        return stats

    def __repr__(self) -> str:
        return (
            f"TimingStats(count={self.count}, total={self.total:.3f} ms, "
            f"mean={self.mean:.3f} ms)"
        )


@dataclass
class SpanNode:
    """One closed wall-clock region of the per-process span tree."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    duration_ms: float = 0.0
    children: list["SpanNode"] = field(default_factory=list)

    def to_record(self) -> dict[str, Any]:
        """JSON-able representation (children nested)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_ms": self.duration_ms,
            "children": [child.to_record() for child in self.children],
        }


class _OpenSpans(threading.local):
    """A recorder's open spans on the calling thread, innermost last."""

    def __init__(self) -> None:
        self.stack: list[SpanNode] = []


class TelemetryRecorder:
    """In-memory telemetry destination: counters, timings and a span tree.

    The recorder is the universal buffer — tests read it directly, the CLI
    report formats it, and the file/stderr sinks serialise it.  Counters and
    timing statistics are *mergeable* (:meth:`merge_state`); the span tree is
    a per-process artifact and is not merged (each closed span also feeds the
    timing statistic of its name, which is what crosses process boundaries).
    Counter, timing and root-span updates are serialised by a lock, because
    a session's recorder takes events from every thread; each thread keeps
    its own stack of open spans, so spans nest within their thread.
    """

    __slots__ = ("counters", "timings", "spans", "_open", "_lock")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timings: dict[str, TimingStats] = {}
        self.spans: list[SpanNode] = []
        self._open = _OpenSpans()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def observe_ms(self, name: str, value_ms: float) -> None:
        """Feed one millisecond observation into the timing statistic ``name``."""
        with self._lock:
            stats = self.timings.get(name)
            if stats is None:
                stats = self.timings[name] = TimingStats()
            stats.add(value_ms)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanNode]:
        """Time a region as a child of the calling thread's innermost open span."""
        node = self._enter_span(name, dict(attrs))
        start = time.perf_counter()
        try:
            yield node
        finally:
            self._exit_span(node, (time.perf_counter() - start) * 1e3)

    # the two span hooks: span() above and the module-level span() fan-out,
    # which times a region once for every active recorder, both call them
    def _enter_span(self, name: str, attrs: dict[str, Any]) -> SpanNode:
        node = SpanNode(name=name, attrs=attrs)
        self._open.stack.append(node)
        return node

    def _exit_span(self, node: SpanNode, duration_ms: float) -> None:
        node.duration_ms = duration_ms
        stack = self._open.stack
        stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self.spans.append(node)
        self.observe_ms(node.name, duration_ms)

    # ------------------------------------------------------------------ #
    # merge / state round-trip
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, Any]:
        """JSON-able mergeable state: counters + timing statistics.

        The span tree is deliberately absent — it describes *this* process's
        call structure; its durations are already present in ``timings``.
        """
        return {
            "counters": dict(self.counters),
            "timings": {name: stats.to_state() for name, stats in self.timings.items()},
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_state` snapshot (e.g. a worker's) into this recorder."""
        for name, value in state.get("counters", {}).items():
            self.counter(name, int(value))
        for name, timing_state in state.get("timings", {}).items():
            incoming = TimingStats.from_state(timing_state)
            with self._lock:
                stats = self.timings.get(name)
                if stats is None:
                    self.timings[name] = incoming
                else:
                    stats.merge(incoming)

    def merge(self, other: "TelemetryRecorder") -> None:
        """Fold another recorder's counters and timings into this one."""
        self.merge_state(other.to_state())

    def __repr__(self) -> str:
        return (
            f"TelemetryRecorder(counters={len(self.counters)}, "
            f"timings={len(self.timings)}, spans={len(self.spans)})"
        )


# --------------------------------------------------------------------- #
# the active-recorder stacks
# --------------------------------------------------------------------- #
#: The stack every thread shares; :func:`session` and :func:`attach` push here.
_STACK: tuple[TelemetryRecorder, ...] = ()
#: Serialises pushes and pops, which read and rewrite the stack.
_STACK_LOCK = threading.Lock()


class _ThreadStack(threading.local):
    #: The calling thread's own stack while it runs inside :func:`isolated`;
    #: ``None`` means the thread uses the shared :data:`_STACK`.
    stack: tuple[TelemetryRecorder, ...] | None = None


_LOCAL = _ThreadStack()


def active() -> tuple[TelemetryRecorder, ...]:
    """The calling thread's active recorders (empty tuple = telemetry disabled).

    Hot code fetches this once per call and skips all instrumentation when it
    is empty — that single check is the entire disabled-path overhead.
    """
    local = _LOCAL.stack
    return _STACK if local is None else local


@contextmanager
def attach(recorder: TelemetryRecorder) -> Iterator[TelemetryRecorder]:
    """Push an existing recorder onto the active stack for the ``with`` body.

    Events inside the body are delivered to ``recorder`` *and* to any outer
    recorders — the scoped-probe composition rule.  The push lands on the
    shared stack, which every thread sees, unless the calling thread is
    inside :func:`isolated`; then it stays on that thread's stack.
    """
    global _STACK
    isolating = _LOCAL.stack is not None
    with _STACK_LOCK:
        if isolating:
            _LOCAL.stack += (recorder,)
        else:
            _STACK += (recorder,)
    try:
        yield recorder
    finally:
        with _STACK_LOCK:
            if isolating:
                _LOCAL.stack = tuple(r for r in _LOCAL.stack if r is not recorder)
            else:
                _STACK = tuple(r for r in _STACK if r is not recorder)


@contextmanager
def session(*sinks: Any) -> Iterator[TelemetryRecorder]:
    """Record everything in the ``with`` body into a fresh recorder.

    On exit each ``sink`` (an object with ``emit(recorder)``, e.g.
    :class:`~repro.telemetry.sinks.JsonlSink` or
    :class:`~repro.telemetry.sinks.StderrSummarySink`) receives the final
    recorder — even when the body raises, so partial telemetry of a failed
    run is still flushed.
    """
    recorder = TelemetryRecorder()
    with attach(recorder):
        try:
            yield recorder
        finally:
            for sink in sinks:
                sink.emit(recorder)


@contextmanager
def isolated(recorder: TelemetryRecorder) -> Iterator[TelemetryRecorder]:
    """Make ``recorder`` the calling thread's *only* active recorder for the
    ``with`` body.

    Used by the engine's worker entry: a unit's events must be captured
    exactly once — in the worker recorder whose state is shipped back and
    merged by the caller — never directly into an ambient session recorder,
    or serial and multiprocess runs would double-count.  Other threads keep
    the shared stack, so nothing they record lands in ``recorder``.
    """
    previous = _LOCAL.stack
    _LOCAL.stack = (recorder,)
    try:
        yield recorder
    finally:
        _LOCAL.stack = previous


def counter(name: str, value: int = 1) -> None:
    """Add to a counter on every active recorder (no-op when disabled)."""
    for recorder in active():
        recorder.counter(name, value)


def observe_ms(name: str, value_ms: float) -> None:
    """Feed a timing observation to every active recorder (no-op when disabled)."""
    for recorder in active():
        recorder.observe_ms(name, value_ms)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Time a region on every active recorder; a cheap no-op when disabled.

    The region is timed once; every active recorder receives a span node (in
    its own tree position) and a timing observation with the same duration.
    """
    recs = active()
    if not recs:
        yield None
        return
    nodes = [rec._enter_span(name, dict(attrs)) for rec in recs]
    start = time.perf_counter()
    try:
        yield None
    finally:
        duration_ms = (time.perf_counter() - start) * 1e3
        for rec, node in zip(recs, nodes):
            rec._exit_span(node, duration_ms)
