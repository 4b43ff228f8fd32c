"""Temporal reachability predicates.

Section 4 of the paper studies when a label assignment *preserves the
reachability* of the underlying graph: the property
``T_reach = "∀ u, v: ∃ (u,v)-path in G ⇔ ∃ (u,v)-journey in (G, L)"``
(Definition 6).  For connected graphs this is simply all-ordered-pairs
temporal reachability; the general form compares against static reachability
so disconnected underlying graphs are handled correctly too.

Every all-pairs predicate reduces one batched sweep rather than ``n``
single-source sweeps, and the static side is the graph's cached closure,
:func:`static_reachability_matrix`.
:func:`reachability_matrix` runs that sweep reach-only: its answer is the
kernel's packed ``reached`` bitset, with no arrival times written, and
:attr:`repro.analysis_api.NetworkAnalysis.reachable_fraction` reduces it.
The two yes/no predicates, :func:`preserves_reachability` and
:func:`is_temporally_connected`, hand the kernel the packed rows a "yes"
needs, so the sweep stops at the first vertex whose row is final and falls
short of them, and compare bitsets without unpacking.  The analysis handle
runs the same sweeps and memoizes their answers.

Monte-Carlo estimates of ``P[T_reach]`` ask :func:`preserves_reachability`
thousands of times over one graph, and each small sweep costs about a dozen
numpy calls per label group whatever its arcs.
:func:`preserves_reachability_stacked` decides such trials from their label
draws, a stack of :func:`stack_height` trials per sweep (:func:`draw_stacks`):
one sweep over the layout of the stack's networks on disjoint copies of the
graph (:func:`~repro.core.timearc_csr.build_stack_timearc_csr`) loops once
over the label groups for the whole stack, and no network is built.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..graphs.static_graph import StaticGraph
from .journeys import _sweep
from .temporal_graph import TemporalGraph
from .timearc_csr import TimeArcCSR, build_stack_timearc_csr, timed_build

__all__ = [
    "static_reachability_matrix",
    "reachability_matrix",
    "is_temporally_connected",
    "preserves_reachability",
    "preserves_reachability_stacked",
    "draw_stacks",
    "stack_height",
    "STACK_ARCS",
]

#: The budget of one stacked sweep: a stack holds ``STACK_ARCS // w``
#: trials of weight ``w`` (:func:`stack_height`).  The one owner of stack
#: size; a stack's layout, bitset and draws grow with it.  A star's stack
#: at ``n = 256`` and ``r = 17`` holds seven trials.
STACK_ARCS = 1 << 16


def static_reachability_matrix(graph: StaticGraph) -> np.ndarray:
    """Boolean closure ``R[s, v]`` = "a static path from ``s`` to ``v``".

    The graph's :attr:`~repro.graphs.StaticGraph.reachability_closure`: a
    read-only array computed once per graph object (one BLAS matmul per BFS
    level) and kept on it, so every trial of a sweep point, whose networks
    share the point's graph, reuses it.
    """
    return graph.reachability_closure


def reachability_matrix(network: TemporalGraph) -> np.ndarray:
    """Boolean matrix ``R[s, v]`` = "a journey from ``s`` to ``v`` exists".

    The diagonal is ``True`` (the empty journey).  One reach-only sweep: the
    kernel advances its packed ``reached`` bitset and writes no arrival
    times.
    """
    reached = _sweep(network, None, 0, reverse=False, arrivals=False).reached
    bits = np.unpackbits(reached.view(np.uint8), axis=1, count=network.n)
    return np.ascontiguousarray(bits.view(np.bool_).T)


def _reaches_all(network: TemporalGraph | TimeArcCSR, required: np.ndarray) -> bool:
    """Whether the all-pairs reached bitset equals the packed rows ``required``.

    The sweep stops at the first vertex whose row is final and lacks a bit
    of ``required``.
    """
    reached = _sweep(
        network, None, 0, reverse=False, arrivals=False, required=required
    ).reached
    return bool(np.array_equal(reached, required))


def is_temporally_connected(network: TemporalGraph) -> bool:
    """Whether every ordered pair of vertices is connected by a journey.

    A decision, not a reduction: the sweep stops at the first vertex whose
    row can no longer gain the sources it misses.
    """
    n = network.n
    everyone = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    everyone.view(np.uint8)[:, : -(-n // 8)] = np.packbits(np.ones(n, dtype=np.bool_))
    return _reaches_all(network, everyone)


def preserves_reachability(network: TemporalGraph) -> bool:
    """The paper's ``T_reach`` property (Definition 6).

    True when, for every ordered pair ``(u, v)``, a journey exists in
    ``(G, L)`` exactly when a path exists in the underlying graph ``G``.
    The sweep runs against the graph's packed closure
    (:attr:`~repro.graphs.StaticGraph.packed_reachability_closure`) and
    stops at the first vertex whose row is final and misses a source that
    has a path to it.
    """
    return _reaches_all(network, network.graph.packed_reachability_closure)


def stack_height(graph: StaticGraph, labels_per_edge: int, lifetime: int) -> int:
    """How many trials of ``r`` label draws per edge of ``graph`` one stacked sweep holds.

    ``max(1, STACK_ARCS // w)`` for a trial's weight ``w = max(A·min(r, a),
    m·r, n)``: the most time arcs it adds to the layout (an edge keeps at
    most ``min(r, a)`` labels of lifetime ``a``), its draws and its bitset
    rows.  So unless it holds one trial, a stack's layout and bitset stay
    within :data:`STACK_ARCS` and every array its build gathers within
    twice that.  A graph with no vertices stacks :data:`STACK_ARCS` trials.
    """
    r = labels_per_edge
    weight = max(graph.num_arcs * min(r, lifetime), graph.m * r, graph.n, 1)
    return max(1, STACK_ARCS // weight)


def draw_stacks(
    graph: StaticGraph, draws: Iterable[np.ndarray], lifetime: int
) -> Iterator[list[np.ndarray]]:
    """Cut a stream of trials' ``(m, r)`` label draws into stacks of :func:`stack_height`.

    The one place stacks are cut.  Each stack is drawn as it is asked for,
    and no trial ahead of it.
    """
    draws = iter(draws)
    for first in draws:
        height = stack_height(graph, first.shape[1], lifetime)
        yield [first, *islice(draws, height - 1)]


def preserves_reachability_stacked(
    graph: StaticGraph, draws: Iterable[np.ndarray], lifetime: int
) -> list[bool]:
    """:func:`preserves_reachability` of every trial's network, a stack per sweep.

    Trial ``t``'s network, never built, is ``TemporalGraph.from_label_matrix
    (graph, draws_t, lifetime=lifetime)``.  Each stack of
    :func:`draw_stacks` is laid out by
    :func:`~repro.core.timearc_csr.build_stack_timearc_csr` (recorded as
    ``csr.builds.forward``) and decided by one reach-only sweep, whose row
    ``t·n + v`` holds trial ``t``'s bits of the ``n`` sources: trial ``t``'s
    answer compares its block of rows with the graph's packed closure.  A
    stack gives up the deficient-row exit, since such a row decides only its
    own trial; a stack of one keeps it.
    """
    closure = graph.packed_reachability_closure
    answers: list[bool] = []
    for stack in draw_stacks(graph, draws, lifetime):
        layout = timed_build("forward", build_stack_timearc_csr, graph, stack, lifetime)
        copies = len(stack)
        # The layout holds what the sweep needs; drop the draws before it runs.
        del stack
        if copies == 1:
            answers.append(_reaches_all(layout, closure))
        else:
            swept = _sweep(layout, None, 0, reverse=False, arrivals=False, copies=copies)
            blocks = swept.reached.reshape(copies, *closure.shape)
            answers.extend((blocks == closure).all(axis=(1, 2)).tolist())
    return answers
