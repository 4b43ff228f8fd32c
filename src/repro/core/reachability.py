"""Temporal reachability predicates.

Section 4 of the paper studies when a label assignment *preserves the
reachability* of the underlying graph: the property
``T_reach = "∀ u, v: ∃ (u,v)-path in G ⇔ ∃ (u,v)-journey in (G, L)"``
(Definition 6).  For connected graphs this is simply all-ordered-pairs
temporal reachability; the general form compares against static reachability
so disconnected underlying graphs are handled correctly too.

Every all-pairs predicate reduces one batched sweep
(:func:`repro.core.journeys.earliest_arrival_matrix`) rather than ``n``
single-source sweeps — :func:`preserves_reachability` sits in the inner loop
of the exhaustive OPT search of :mod:`repro.core.price_of_randomness` — and
the static side is one BLAS closure, :func:`static_reachability_matrix`.
The analysis handle memoizes the same reductions; hold one when reading
several quantities of an instance.
"""

from __future__ import annotations

import numpy as np

from ..graphs.static_graph import StaticGraph
from ..types import UNREACHABLE
from .distances import temporal_distance_summary
from .journeys import earliest_arrival_matrix, earliest_arrival_times
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

    All sources are advanced together: one dense adjacency matrix and one
    matmul per BFS level (float32, so the product runs on BLAS instead of
    NumPy's scalar integer loops), instead of ``n`` per-source Python-level
    BFS runs.  Levels are bounded by the static diameter, so the clique
    substrates of the Monte-Carlo workloads finish in one step.
    """
    n = graph.n
    adjacency = np.zeros((n, n), dtype=np.float32)
    adjacency[graph.arc_tails, graph.arc_heads] = 1.0
    reach = np.eye(n, dtype=bool)
    frontier = reach
    while True:
        new = (frontier.astype(np.float32) @ adjacency > 0.0) & ~reach
        if not new.any():
            return reach
        reach |= new
        frontier = new


def reachability_matrix(network: TemporalGraph) -> np.ndarray:
    """Boolean matrix ``R[s, v]`` = "a journey from ``s`` to ``v`` exists".

    The diagonal is ``True`` (the empty journey).
    """
    return earliest_arrival_matrix(network) < UNREACHABLE


def reachable_set(network: TemporalGraph, source: int) -> np.ndarray:
    """Vertices temporally reachable from ``source`` (including the source)."""
    arrival = earliest_arrival_times(network, source)
    return np.flatnonzero(arrival < UNREACHABLE)


def reachable_fraction(network: TemporalGraph) -> float:
    """Fraction of ordered pairs ``s ≠ t`` connected by a journey.

    Equals 1.0 exactly when the network is temporally connected; a useful
    soft metric when sweeping the number of labels per edge.
    """
    return temporal_distance_summary(network).reachable_fraction


def is_temporally_connected(network: TemporalGraph) -> bool:
    """Whether every ordered pair of vertices is connected by a journey."""
    return temporal_distance_summary(network).diameter < UNREACHABLE


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
