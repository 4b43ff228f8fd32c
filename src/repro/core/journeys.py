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
  consumers (:class:`repro.analysis_api.NetworkAnalysis`, the temporal
  diameter, the Monte-Carlo experiments) route through it.

The temporal distance δ(u, v) from ``start_time`` ``s`` is
``earliest_arrival_times(network, u, start_time=s)[v]``; from time 0 it is
also ``NetworkAnalysis(network).distance(u, v)``.

Both sweeps terminate early once every entry of the arrival state is at most
the current label: arrivals only ever decrease, and a group labelled ``l`` can
only improve entries currently greater than ``l``, so the remaining groups
cannot change anything.  On the paper's normalized clique this cuts the sweep
from ``a = n`` groups to about the temporal diameter ``Θ(log n)`` of them.
The scalar references and brute-force journey oracles that cross-validate
these kernels live with the tests (``tests/oracles.py``).

Both entry points delegate the group advance to the one sweep kernel,
:class:`repro.core.kernels.NumpyBackend`, through the private ``_sweep``,
which also records each sweep's ``kernel.forward.*`` telemetry.  The reverse
entry points of :mod:`repro.core.reverse_journeys` run the same ``_sweep``
over the time-reversed layout and record ``kernel.reverse.*``.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import ConfigurationError, UnreachableVertexError
from ..telemetry import active as _telemetry_active
from ..types import UNREACHABLE, Journey, TimeEdge, as_vertex_array
from ..utils.validation import check_non_negative_int
from .kernels import NumpyBackend
from .temporal_graph import TemporalGraph
from .timearc_csr import TimeArcCSR

__all__ = [
    "earliest_arrival_times",
    "earliest_arrival_matrix",
    "foremost_journey",
    "foremost_journey_tree",
]

#: The sweep kernel.  ``_sweep`` looks its methods up per call, so a
#: profiler that wraps them on the class sees every sweep.
_KERNEL = NumpyBackend()


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

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``n``; entry ``v`` is δ(source, v) or
        :data:`~repro.types.UNREACHABLE`.  The source itself has arrival
        ``start_time``.
    """
    source = _validate_source(network.n, source)
    start_time = check_non_negative_int(start_time, "start_time")
    swept = _sweep(network, (source,), start_time, reverse=False)
    return swept.arrivals[:, 0]


def earliest_arrival_matrix(
    network: TemporalGraph,
    sources: Sequence[int] | None = None,
    *,
    start_time: int = 0,
) -> np.ndarray:
    """Batched earliest arrivals: one label-group sweep for many sources.

    This is the engine behind every all-pairs quantity (temporal distance
    matrix, eccentricities, diameter, radius, average distance).  Instead of
    running ``len(sources)`` independent single-source sweeps it advances the
    whole ``(S, n)`` arrival matrix one label group at a time: for each group
    the per-source "can forward" bits are OR-reduced over the arcs sharing a
    head (``np.bitwise_or.reduceat`` with indices precomputed in the CSR
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
    repro.analysis_api.NetworkAnalysis.distances_from : the memoizing rows
        at ``start_time = 0``.
    """
    start_time = check_non_negative_int(start_time, "start_time")
    swept = _sweep(network, sources, start_time, reverse=False)
    return np.ascontiguousarray(swept.arrivals.T)


class SweepOutputs(NamedTuple):
    """What one :func:`_sweep` produced; the outputs not asked for are ``None``.

    ``reached`` is the final packed bitset (see
    :meth:`~repro.core.kernels.NumpyBackend.forward_sweep` for its layout);
    ``arrivals`` the vertex-major ``(n, width)`` arrival state; ``settled``
    the settle counts of the layout's label groups (empty when nothing was
    swept) and ``last`` each column's last settling label (its start value
    when nothing settled).
    """

    reached: np.ndarray
    arrivals: np.ndarray | None
    settled: np.ndarray | None
    last: np.ndarray | None


def _check_lifetime(network: TemporalGraph | TimeArcCSR) -> None:
    """Refuse lifetimes whose labels could collide with the sentinel."""
    if network.lifetime >= UNREACHABLE:
        raise ConfigurationError(
            f"lifetime {network.lifetime} is not below the UNREACHABLE sentinel "
            f"{UNREACHABLE}: sweeps could not tell a label from 'unreachable'"
        )


def _sweep(
    network: TemporalGraph | TimeArcCSR,
    columns: Sequence[int] | None,
    start: int,
    *,
    reverse: bool,
    arrivals: bool = True,
    settles: bool = False,
    required: np.ndarray | None = None,
    copies: int = 1,
) -> SweepOutputs:
    """The one label-group sweep behind both directions.

    Sweeps journeys leaving each column vertex (every vertex when
    ``columns`` is ``None``) at time ``start``, and returns the reached
    bitset plus the outputs asked for: the ``arrivals`` state, and with
    ``settles`` the ``settled`` counts and ``last`` labels.  Forward, the
    columns are sources and the sweep runs over
    :attr:`TemporalGraph.timearc_csr` from ``start_time``.  Reverse, the
    columns are targets and the sweep runs over the time-reversed network
    from the mirrored deadline ``a − deadline``, which is negative for a
    deadline beyond the lifetime; the arrival state then holds
    ``a + 1 − departure``, with :data:`~repro.types.UNREACHABLE` where the
    departure is :data:`~repro.types.NEVER`, and the labels are the
    distances a blocked sweep folds.  A wide reverse sweep reads
    :attr:`TemporalGraph.reverse_timearc_csr`; one column asking for
    arrivals alone reads the forward layout from its last group down
    (:meth:`~repro.core.kernels.NumpyBackend.reverse_sweep`), so a
    single-target query never builds the reverse layout.

    ``required`` turns the sweep into a yes/no test: the packed rows (in the
    ``reached`` layout) a complete answer must reach.  The kernel then stops
    at the first row that is final and lacks one of them, leaving a partial
    bitset that differs from ``required`` in that row (see
    :meth:`~repro.core.kernels.NumpyBackend.forward_sweep`); the caller
    compares the two.

    ``copies`` sweeps a stack's forward layout
    (:func:`~repro.core.timearc_csr.build_stack_timearc_csr`), passed in
    place of the network: it lies on ``copies`` disjoint copies of an
    ``n``-vertex graph, and the columns are vertices of one copy.  Every
    copy shares the columns, so row ``t·n + s`` starts with column ``s``'s
    bit; the rows of copy ``t`` end up holding copy ``t``'s reached bitset,
    in the single-copy layout.  A stack sweeps forward and reach-only: the
    arrival state, the settle counts and ``required`` are single-copy
    outputs, so asking for any of them with ``copies > 1``, or sweeping a
    layout in reverse, raises ``ValueError``.

    With a telemetry recorder active it records ``<prefix>.sweeps``, the
    batch width as ``<prefix>.sources`` (``.targets`` reverse), the label
    groups visited as ``<prefix>.groups_scanned``,
    ``<prefix>.saturation_exits`` when the sweep stopped because every
    entry settled, ``<prefix>.deficient_exits`` when it stopped at a final
    row short of ``required``, and the ``<prefix>.sweep_ms`` timing, where
    the prefix is ``kernel.forward`` or ``kernel.reverse``.  With none
    active the cost is one check per sweep.
    """
    if copies > 1 and (arrivals or settles or required is not None):
        raise ValueError("a stacked sweep is reach-only")
    layout = network if isinstance(network, TimeArcCSR) else None
    if layout is not None and reverse:
        raise ValueError("a layout is swept forward")
    _check_lifetime(network)
    n = network.n // copies
    if columns is None:
        column_arr = np.arange(n, dtype=np.int64)
    else:
        column_arr = as_vertex_array(columns, n)
    width = column_arr.size
    recs = _telemetry_active()
    sweep_start = time.perf_counter() if recs else 0.0
    # Vertex-major: row v holds every column's bit (or arrival) at v, so the
    # per-group gathers, segment reductions and scatters all touch
    # contiguous rows (the arcs of a group are sorted by head).  Column s is
    # bit 7 − s % 8 of byte s // 8, the np.packbits order.  Copy t's rows
    # are block t, each block starting as the first.
    words = -(-width // 64)
    reached = np.zeros((copies, n, words), dtype=np.uint64)
    positions = np.arange(width)
    np.bitwise_or.at(
        reached[0].view(np.uint8),
        (column_arr, positions >> 3),
        (0x80 >> (positions & 7)).astype(np.uint8),
    )
    reached[1:] = reached[0]
    reached = reached.reshape(copies * n, words)
    state = settled = last = None
    if arrivals:
        state = np.full((n, width), UNREACHABLE, dtype=np.int64)
        state[column_arr, positions] = start
    if settles:
        settled = np.zeros(0, dtype=np.int64)
        last = np.full(width, start, dtype=np.int64)
    groups_scanned = 0
    stop = None
    num_arcs = network.num_time_arcs if layout is None else layout.num_arcs
    if num_arcs != 0 and width != 0:
        # Arrivals start at ``start`` and only ever take values equal to some
        # label strictly greater than a tail's arrival, so groups labelled
        # <= start can never be used; skip straight past them.
        sweep = _KERNEL.reverse_sweep if reverse else _KERNEL.forward_sweep
        if reverse and arrivals and width == 1 and not settles and required is None:
            # The kernel's single-column loop walks the forward layout down:
            # the mirrored labels <= start are the labels > a − start.
            csr = network.timearc_csr
            first_group = csr.labels.size - int(
                np.searchsorted(csr.labels, network.lifetime - start, side="right")
            )
        else:
            csr = layout
            if csr is None:
                csr = network.reverse_timearc_csr if reverse else network.timearc_csr
            first_group = int(np.searchsorted(csr.labels, start, side="right"))
        if settles:
            settled = np.zeros(csr.labels.size, dtype=np.int64)
        groups_scanned, stop = sweep(
            csr,
            reached,
            first_group,
            arrivals=state,
            settled=settled,
            last=last,
            required=required,
        )
    if recs:
        duration_ms = (time.perf_counter() - sweep_start) * 1e3
        prefix = "kernel.reverse" if reverse else "kernel.forward"
        tile_name = "targets" if reverse else "sources"
        for rec in recs:
            rec.counter(f"{prefix}.sweeps")
            rec.counter(f"{prefix}.{tile_name}", width)
            rec.counter(f"{prefix}.groups_scanned", groups_scanned)
            if stop:
                rec.counter(f"{prefix}.{stop}_exits")
            rec.observe_ms(f"{prefix}.sweep_ms", duration_ms)
    return SweepOutputs(reached, state, settled, last)


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
    _check_lifetime(network)
    arrival = np.full(network.n, UNREACHABLE, dtype=np.int64)
    arrival[source] = start_time
    predecessor = np.full(network.n, -1, dtype=np.int64)
    if network.num_time_arcs == 0:
        return arrival, predecessor

    csr = network.timearc_csr
    labels = csr.labels
    offsets = csr.arc_offsets
    tails = csr.tails
    heads = csr.narrow_heads
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
