"""Temporal reachability predicates.

Section 4 of the paper studies when a label assignment *preserves the
reachability* of the underlying graph: the property
``T_reach = "∀ u, v: ∃ (u,v)-path in G ⇔ ∃ (u,v)-journey in (G, L)"``
(Definition 6).  For connected graphs this is simply all-ordered-pairs
temporal reachability; the general form compares against static reachability
so disconnected underlying graphs are handled correctly too.

Every all-pairs predicate reduces one batched sweep rather than ``n``
single-source sweeps — :func:`preserves_reachability` sits in the inner loop
of the exhaustive OPT search of :mod:`repro.core.price_of_randomness` — and
the static side is the graph's cached closure,
:func:`static_reachability_matrix`.
:func:`reachability_matrix` runs that sweep reach-only: its answer is the
kernel's packed ``reached`` bitset, with no arrival times written, and
:func:`reachable_fraction` and :func:`is_temporally_connected` reduce it.
The analysis handle memoizes the same reductions; hold one when reading
several quantities of an instance.
"""

from __future__ import annotations

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
]


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


def is_temporally_connected(network: TemporalGraph) -> bool:
    """Whether every ordered pair of vertices is connected by a journey."""
    return bool(reachability_matrix(network).all())


def preserves_reachability(network: TemporalGraph) -> bool:
    """The paper's ``T_reach`` property (Definition 6).

    True when, for every ordered pair ``(u, v)``, a journey exists in
    ``(G, L)`` exactly when a path exists in the underlying graph ``G``.
    """
    return bool(
        np.array_equal(
            reachability_matrix(network), static_reachability_matrix(network.graph)
        )
    )
