"""Foremost journeys and temporal distances: single-source and batched kernels.

A *journey* (Definition 2) is a path whose consecutive edge labels strictly
increase; the *foremost* journey to a target minimises the arrival time (the
label of the last edge used — Definition 3), and that minimum arrival time is
the temporal distance δ(u, v).

All kernels share one sweep: process the time arcs one label value at a time,
in ascending label order.  Because labels along a journey must strictly
increase, a vertex whose current earliest arrival is ``τ`` can forward over an
arc labelled ``l`` exactly when ``τ < l``, so a single ordered pass computes
exact earliest arrivals (no Dijkstra priority queue needed for discrete
labels).  The label groups, and the per-group head-run indices the reductions
need, come precomputed from the cached
:class:`~repro.core.timearc_csr.TimeArcCSR` layout
(:attr:`TemporalGraph.timearc_csr`), so no kernel re-sorts the arcs.

Two execution strategies are exposed:

* :func:`earliest_arrival_times` — one source, a length-``n`` arrival vector
  advanced group by group;
* :func:`earliest_arrival_matrix` — the batched engine: an ``(S, n)`` arrival
  matrix for ``S`` sources advanced simultaneously, one vectorised reduction
  per label group regardless of how many sources are in flight.  All-pairs
  consumers (:func:`repro.core.distances.temporal_distance_matrix`, the
  temporal diameter, the Monte-Carlo experiments) route through it.

Both sweeps terminate early once every entry of the arrival state is at most
the current label: arrivals only ever decrease, and a group labelled ``l`` can
only improve entries currently greater than ``l``, so the remaining groups
cannot change anything.  On the paper's normalized clique this cuts the sweep
from ``a = n`` groups to about the temporal diameter ``Θ(log n)`` of them.
The scalar references and brute-force journey oracles that cross-validate
these kernels live with the tests (``tests/oracles.py``).

The hot loop itself is pluggable: both entry points accept a ``backend=``
keyword naming a registered :mod:`repro.core.kernels` backend (``numpy`` —
the vectorised reference, ``numba`` — JIT-compiled scalar loops, …) and
delegate the group advance to it; with no keyword the registry's ambient
selection applies (process default, ``REPRO_KERNEL_BACKEND``, then the best
available backend).  All backends are pinned bit-identical, so the choice
only affects speed.  The reverse entry points of
:mod:`repro.core.reverse_journeys` run the same private sweep over the
time-reversed layout.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..exceptions import UnreachableVertexError
from ..telemetry import active as _telemetry_active
from ..types import UNREACHABLE, Journey, TimeEdge, as_vertex_array
from ..utils.validation import check_non_negative_int
from ._kernel_telemetry import record_sweep as _record_sweep
from .kernels import resolve_backend as _resolve_backend
from .temporal_graph import TemporalGraph

__all__ = [
    "earliest_arrival_times",
    "earliest_arrival_matrix",
    "foremost_journey",
    "foremost_journey_tree",
    "temporal_distance",
]


def _validate_source(graph_n: int, source: int) -> int:
    source = int(source)
    if not 0 <= source < graph_n:
        raise ValueError(f"source {source} is not a vertex of a graph with {graph_n} vertices")
    return source


def earliest_arrival_times(
    network: TemporalGraph,
    source: int,
    *,
    start_time: int = 0,
    backend: str | None = None,
) -> np.ndarray:
    """Earliest arrival time at every vertex for journeys departing ``source``.

    Parameters
    ----------
    network:
        The temporal network.
    source:
        Source vertex.
    start_time:
        The message only becomes available at ``source`` at this time; only
        arcs with labels strictly greater than ``start_time`` can be used as
        the first hop.  The default 0 allows every label, matching the paper.
    backend:
        Name of the :mod:`repro.core.kernels` backend to run the sweep on;
        ``None`` (the default) uses the ambient selection.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``n``; entry ``v`` is δ(source, v) or
        :data:`~repro.types.UNREACHABLE`.  The source itself has arrival
        ``start_time``.
    """
    source = _validate_source(network.n, source)
    start_time = check_non_negative_int(start_time, "start_time")
    return _sweep(network, (source,), start_time, reverse=False, backend=backend)[:, 0]


def earliest_arrival_matrix(
    network: TemporalGraph,
    sources: Sequence[int] | None = None,
    *,
    start_time: int = 0,
    backend: str | None = None,
) -> np.ndarray:
    """Batched earliest arrivals: one label-group sweep for many sources.

    This is the engine behind every all-pairs quantity (temporal distance
    matrix, eccentricities, diameter, radius, average distance).  Instead of
    running ``len(sources)`` independent single-source sweeps it advances the
    whole ``(S, n)`` arrival matrix one label group at a time: for each group
    the per-source "can forward" mask is OR-reduced over the arcs sharing a
    head (``np.logical_or.reduceat`` with indices precomputed in the CSR
    layout), giving a handful of vectorised NumPy operations per label value
    regardless of ``S``.

    Parameters
    ----------
    network:
        The temporal network.
    sources:
        Sources to compute rows for; defaults to all vertices (the all-pairs
        case).
    start_time:
        The message becomes available at every source at this time; arcs
        labelled ``<= start_time`` cannot start a journey.  Default 0.
    backend:
        Name of the :mod:`repro.core.kernels` backend to run the sweep on;
        ``None`` (the default) uses the ambient selection.

    Returns
    -------
    numpy.ndarray
        ``(len(sources), n)`` ``int64`` matrix; entry ``[i, v]`` is the
        earliest arrival at ``v`` from ``sources[i]`` (``start_time`` on the
        source column, :data:`~repro.types.UNREACHABLE` when no journey
        exists).

    See Also
    --------
    earliest_arrival_times : the single-source specialisation.
    repro.core.distances.temporal_distance_matrix : thin wrapper fixing
        ``start_time = 0``.
    """
    start_time = check_non_negative_int(start_time, "start_time")
    state = _sweep(network, sources, start_time, reverse=False, backend=backend)
    return np.ascontiguousarray(state.T)


def _sweep(
    network: TemporalGraph,
    columns: Sequence[int] | None,
    start: int,
    *,
    reverse: bool,
    backend: str | None,
) -> np.ndarray:
    """The one label-group sweep behind both directions.

    Returns the vertex-major ``(n, len(columns))`` earliest-arrival state of
    journeys leaving each column vertex (every vertex when ``columns`` is
    ``None``) at time ``start``.  Forward, the columns are sources and the
    sweep runs over :attr:`TemporalGraph.timearc_csr` from ``start_time``.
    Reverse, the columns are targets and the sweep runs over the
    time-reversed :attr:`TemporalGraph.reverse_timearc_csr` from the
    mirrored deadline ``a − deadline``, which is negative for a deadline
    beyond the lifetime; the state then holds ``a + 1 − departure``, with
    :data:`~repro.types.UNREACHABLE` where the departure is
    :data:`~repro.types.NEVER`.  Either way the state is an arrival state,
    so blocked sweeps reduce its transpose view directly.
    """
    n = network.n
    if columns is None:
        column_arr = np.arange(n, dtype=np.int64)
    else:
        column_arr = as_vertex_array(columns, n)
    width = column_arr.size
    kernel = _resolve_backend(backend)
    recs = _telemetry_active()
    sweep_start = time.perf_counter() if recs else 0.0
    # Vertex-major state: row v holds the arrivals at v for every column, so
    # the per-group gathers, segment reductions and scatters all touch
    # contiguous rows (the arcs of a group are sorted by head).
    state = np.full((n, width), UNREACHABLE, dtype=np.int64)
    state[column_arr, np.arange(width)] = start
    groups_scanned = 0
    saturated = False
    if network.num_time_arcs != 0 and width != 0:
        if reverse:
            csr, sweep = network.reverse_timearc_csr, kernel.reverse_sweep
        else:
            csr, sweep = network.timearc_csr, kernel.forward_sweep
        # Arrivals start at ``start`` and only ever take values equal to some
        # label strictly greater than a tail's arrival, so groups labelled
        # <= start can never be used; skip straight past them.
        first_group = int(np.searchsorted(csr.labels, start, side="right"))
        groups_scanned, saturated = sweep(csr, state, first_group)
    if recs:
        _record_sweep(
            recs,
            "kernel.reverse" if reverse else "kernel.forward",
            start=sweep_start,
            tile_name="targets" if reverse else "sources",
            tile=width,
            groups=groups_scanned,
            saturated=saturated,
            backend=kernel.name,
        )
    return state


def foremost_journey_tree(
    network: TemporalGraph, source: int, *, start_time: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Earliest arrivals plus predecessor time arcs for journey reconstruction.

    Returns
    -------
    (arrival, predecessor):
        ``arrival`` is as in :func:`earliest_arrival_times`;
        ``predecessor[v]`` is the index (into the network's time-arc arrays)
        of the arc whose traversal first reached ``v``, or ``−1`` for the
        source and unreachable vertices.
    """
    source = _validate_source(network.n, source)
    start_time = check_non_negative_int(start_time, "start_time")
    arrival = np.full(network.n, UNREACHABLE, dtype=np.int64)
    arrival[source] = start_time
    predecessor = np.full(network.n, -1, dtype=np.int64)
    if network.num_time_arcs == 0:
        return arrival, predecessor

    csr = network.timearc_csr
    labels = csr.labels
    offsets = csr.arc_offsets
    tails = csr.tails
    heads = csr.heads
    arc_order = csr.arc_order
    first_group = int(np.searchsorted(labels, start_time, side="right"))
    for group in range(first_group, labels.size):
        label = int(labels[group])
        lo, hi = int(offsets[group]), int(offsets[group + 1])
        group_tails = tails[lo:hi]
        group_heads = heads[lo:hi]
        usable = (arrival[group_tails] < label) & (arrival[group_heads] > label)
        if not usable.any():
            continue
        positions = np.flatnonzero(usable)
        # One arc per newly-improved head; np.unique keeps the first occurrence.
        new_heads, first_idx = np.unique(group_heads[positions], return_index=True)
        arrival[new_heads] = label
        predecessor[new_heads] = arc_order[lo + positions[first_idx]]
        if int(arrival.max()) <= label:
            break
    return arrival, predecessor


def foremost_journey(
    network: TemporalGraph, source: int, target: int, *, start_time: int = 0
) -> Journey:
    """Return a foremost (earliest-arrival) journey from ``source`` to ``target``.

    Raises
    ------
    UnreachableVertexError
        If no journey exists.
    """
    source = _validate_source(network.n, source)
    target = _validate_source(network.n, target)
    if source == target:
        return Journey(source, target)
    arrival, predecessor = foremost_journey_tree(network, source, start_time=start_time)
    if arrival[target] >= UNREACHABLE:
        raise UnreachableVertexError(source, target)

    tails = network.time_arc_tails
    heads = network.time_arc_heads
    labels = network.time_arc_labels
    hops: list[TimeEdge] = []
    current = target
    while current != source:
        arc = int(predecessor[current])
        if arc < 0:
            raise UnreachableVertexError(source, target)
        hops.append(TimeEdge(int(tails[arc]), int(heads[arc]), int(labels[arc])))
        current = int(tails[arc])
    hops.reverse()
    return Journey(source, target, tuple(hops))


def temporal_distance(
    network: TemporalGraph,
    source: int,
    target: int,
    *,
    start_time: int = 0,
    backend: str | None = None,
) -> int:
    """Temporal distance δ(source, target): the foremost journey's arrival time.

    Returns :data:`~repro.types.UNREACHABLE` when no journey exists (rather
    than raising), which keeps Monte-Carlo loops branch-free.
    """
    arrival = earliest_arrival_times(
        network, source, start_time=start_time, backend=backend
    )
    return int(arrival[_validate_source(network.n, target)])
