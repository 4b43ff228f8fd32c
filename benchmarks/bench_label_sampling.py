"""Label-sampling bench — the direct-to-CSR fast path vs. the dict-build path.

Random label models are the per-trial hot loop of every Monte-Carlo scenario:
each trial samples a fresh ``(m, r)`` label matrix and needs the CSR time-arc
layout the batched kernels consume.  On this workload, one label per arc,
both legs end in the same stored form: the network keeps only its labels and
takes its edge and time-arc columns from the graph (``StaticGraph.edge_arcs``),
and its forward layout build starts from the head order the graph keeps, so
both legs pay the same layout build.  What the dict-build leg pays on top is
Python work on per-edge input: a ``tuple(sorted(set(row)))`` per draw row,
then the mapping constructor's validation and flattening of those tuples into
the arrays, and one comparison of the flattened edge column with the graph's.
The fast leg, :meth:`TemporalGraph.from_label_matrix`, only copies the one
draw column: with one label per edge there is nothing to sort or collapse.

Two layers:

* pytest-benchmark timings of both construction paths (draws → network →
  CSR) on the E1 clique workload;
* ``test_label_sampling_speedup_at_least_3x`` — the acceptance gate: on the
  E1 clique workload (directed ``K_128``, one uniform label per arc) the
  fast path must be ≥ 3× faster than the dict-build path at producing an
  identical network + CSR.  The gate alternates its legs over
  :data:`ROUNDS` rounds and needs a dict leg of at least
  :data:`SERIAL_FLOOR_S`; below it a single scheduler stall decides the
  ratio, so it skips with the measured time instead.  Its perf record is
  ``benchmarks/results/label_sampling_speedup.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.temporal_graph import TemporalGraph
from repro.graphs.generators import complete_graph

#: The E1 workload: the directed hostile clique with one label per arc.
N = 128
LABELS_PER_EDGE = 1
#: Rounds the gate alternates its legs over, one build per leg per round:
#: enough for a dict leg of about 1.5 s on a 2-core box in a fast phase of
#: the host (the leg lost its per-edge arc loop, which was a third of it).
ROUNDS = 66
#: Shortest dict leg the gate asserts on.
SERIAL_FLOOR_S = 1.0
REQUIRED_SPEEDUP = 3.0


def _draws(graph, r, seed=314):
    rng = np.random.default_rng(seed)
    return rng.integers(1, graph.n + 1, size=(graph.m, r))


def _dict_build(graph, matrix, lifetime):
    """Per-edge tuples through the mapping constructor's Python normalisation."""
    labels = [tuple(sorted(set(row))) for row in matrix.tolist()]
    network = TemporalGraph(graph, labels, lifetime=lifetime)
    network.timearc_csr
    return network


def _fast_build(graph, matrix, lifetime):
    """The vectorised direct-to-CSR path."""
    network = TemporalGraph.from_label_matrix(graph, matrix, lifetime=lifetime)
    network.timearc_csr
    return network


def test_bench_label_sampling_dict_path(benchmark):
    graph = complete_graph(N, directed=True)
    matrix = _draws(graph, LABELS_PER_EDGE)
    network = benchmark.pedantic(
        lambda: _dict_build(graph, matrix, graph.n), rounds=1, iterations=1
    )
    assert network.total_labels == graph.m


def test_bench_label_sampling_fast_path(benchmark):
    graph = complete_graph(N, directed=True)
    matrix = _draws(graph, LABELS_PER_EDGE)
    network = benchmark.pedantic(
        lambda: _fast_build(graph, matrix, graph.n), rounds=1, iterations=1
    )
    assert network.total_labels == graph.m


def test_label_sampling_speedup_at_least_3x(perf_record):
    """Acceptance gate: direct-to-CSR must beat the dict build ≥ 3× on E1."""
    graph = complete_graph(N, directed=True)
    matrix = _draws(graph, LABELS_PER_EDGE)

    # Warm both paths (first-touch allocations, import side effects).
    reference = _dict_build(graph, matrix, graph.n)
    candidate = _fast_build(graph, matrix, graph.n)
    assert candidate == reference, "fast path must build an identical network"

    # Alternate the legs every round and sum each leg over the rounds: a
    # slow phase of the host then falls on both legs, and a scheduler stall
    # costs one round's share of a leg instead of deciding the ratio.
    dict_seconds = fast_seconds = 0.0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _dict_build(graph, matrix, graph.n)
        dict_seconds += time.perf_counter() - start
        start = time.perf_counter()
        _fast_build(graph, matrix, graph.n)
        fast_seconds += time.perf_counter() - start

    speedup = dict_seconds / fast_seconds
    perf_record(
        name="label_sampling_speedup",
        n=N,
        labels_per_edge=LABELS_PER_EDGE,
        rounds=ROUNDS,
        dict_seconds=dict_seconds,
        fast_seconds=fast_seconds,
        speedup=speedup,
        required=REQUIRED_SPEEDUP,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if dict_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"dict leg took {dict_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide the ratio"
        )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"direct-to-CSR path only {speedup:.2f}x faster than the dict build "
        f"on the E1 clique workload (n={N}, r={LABELS_PER_EDGE}); "
        f"required ≥ {REQUIRED_SPEEDUP}x"
    )
