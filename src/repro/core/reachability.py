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
:func:`reachable_fraction` reduces it.  The two yes/no predicates,
:func:`preserves_reachability` and :func:`is_temporally_connected`, hand
the kernel the packed rows a "yes" needs, so the sweep stops at the first
vertex whose row is final and falls short of them, and compare bitsets
without unpacking.  The analysis handle memoizes the same reductions; hold
one when reading several quantities of an instance.

Monte-Carlo estimates of ``P[T_reach]`` ask :func:`preserves_reachability`
thousands of times over one graph, and each small sweep costs about a dozen
numpy calls per label group whatever its arcs.
:func:`preserves_reachability_stacked` decides such trials
:data:`STACK_HEIGHT` at a time: one sweep over a network on disjoint copies
of the graph (:meth:`TemporalGraph.stacked`) loops once over the label
groups for the whole stack.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

import numpy as np

from ..graphs.static_graph import StaticGraph
from ..types import UNREACHABLE
from .journeys import _sweep, earliest_arrival_times
from .temporal_graph import TemporalGraph

__all__ = [
    "static_reachability_matrix",
    "reachability_matrix",
    "reachable_set",
    "reachable_fraction",
    "is_temporally_connected",
    "preserves_reachability",
    "preserves_reachability_stacked",
    "STACK_HEIGHT",
]

#: Trials one stacked sweep decides at most.  It bounds a stack's memory at
#: that many networks.  Dense cliques, whose sweeps saturate after a few
#: large groups, break even against one sweep per trial at this height and
#: lose beyond it.
STACK_HEIGHT = 8


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


def reachable_set(network: TemporalGraph, source: int) -> np.ndarray:
    """Vertices temporally reachable from ``source`` (including the source)."""
    arrival = earliest_arrival_times(network, source)
    return np.flatnonzero(arrival < UNREACHABLE)


def reachable_fraction(network: TemporalGraph) -> float:
    """Fraction of ordered pairs ``s ≠ t`` connected by a journey.

    Equals 1.0 exactly when the network is temporally connected (and for
    ``n <= 1``); a useful soft metric when sweeping the number of labels per
    edge.  A reduction of :func:`reachability_matrix`.
    """
    n = network.n
    if n <= 1:
        return 1.0
    pairs = int(np.count_nonzero(reachability_matrix(network))) - n
    return pairs / float(n * (n - 1))


def _reaches_all(network: TemporalGraph, required: np.ndarray) -> bool:
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


def preserves_reachability_stacked(networks: Iterable[TemporalGraph]) -> list[bool]:
    """:func:`preserves_reachability` of every network, a stack per sweep.

    The networks must lie on one graph object.  They are taken
    :data:`STACK_HEIGHT` at a time, so at most that many are held at once,
    and each stack is decided by one reach-only sweep over
    :meth:`TemporalGraph.stacked`.  The copies share one column space: row
    ``t·n + v`` holds network ``t``'s bits of the ``n`` sources, so the
    bitset is as large as ``T`` separate sweeps' but the sweep loops over the
    label groups once.  Network ``t``'s answer compares its block of rows
    with the graph's packed closure.  A stack gives up the deficient-row
    exit, since such a row decides only its own network; a stack of one is
    the network itself and keeps it.
    """
    networks = iter(networks)
    answers: list[bool] = []
    while stack := list(islice(networks, STACK_HEIGHT)):
        closure = stack[0].graph.packed_reachability_closure
        if len(stack) == 1:
            answers.append(_reaches_all(stack[0], closure))
            continue
        reached = _sweep(
            TemporalGraph.stacked(stack),
            None,
            0,
            reverse=False,
            arrivals=False,
            copies=len(stack),
        ).reached
        blocks = reached.reshape(len(stack), *closure.shape)
        answers.extend((blocks == closure).all(axis=(1, 2)).tolist())
    return answers
