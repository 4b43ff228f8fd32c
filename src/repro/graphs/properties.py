"""Static-graph properties: BFS distances, diameter, connectivity, degrees.

The Price-of-Randomness results (Theorems 7–8) are phrased in terms of the
*static* diameter ``d(G)`` and the edge count ``m``; the Theorem 5 lower bound
needs connectivity of edge-induced subgraphs.  Everything here is exact and
works on the array representation of :class:`~repro.graphs.StaticGraph`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError, InvalidVertexError
from .static_graph import StaticGraph

__all__ = [
    "bfs_distances",
    "all_pairs_shortest_paths",
    "eccentricities",
    "diameter",
    "radius",
    "is_connected",
    "connected_components",
    "degree_sequence",
    "density",
]

#: Sentinel distance for unreachable vertices in BFS outputs.
_UNREACHABLE = -1


def bfs_distances(graph: StaticGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 when unreachable).

    Implemented as a frontier-at-a-time sweep using boolean masks over the arc
    arrays, so the cost per level is ``O(num_arcs)`` vectorised work rather
    than a Python loop over neighbours.
    """
    if not graph.has_vertex(source):
        raise InvalidVertexError(source, graph.n)
    n = graph.n
    dist = np.full(n, _UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    tails = graph.arc_tails
    heads = graph.arc_heads
    level = 0
    while frontier.any():
        level += 1
        # Arcs leaving the current frontier that reach unvisited vertices.
        active = frontier[tails]
        candidates = heads[active]
        new_frontier = np.zeros(n, dtype=bool)
        new_frontier[candidates] = True
        new_frontier &= dist == _UNREACHABLE
        if not new_frontier.any():
            break
        dist[new_frontier] = level
        frontier = new_frontier
    return dist


def all_pairs_shortest_paths(graph: StaticGraph) -> np.ndarray:
    """All-pairs hop distances as an ``(n, n)`` array (−1 when unreachable)."""
    n = graph.n
    result = np.empty((n, n), dtype=np.int64)
    for source in range(n):
        result[source] = bfs_distances(graph, source)
    return result


def eccentricities(graph: StaticGraph) -> np.ndarray:
    """Eccentricity of every vertex.

    Raises
    ------
    GraphError
        If the graph is not (strongly) connected, since eccentricities are
        undefined in that case.
    """
    dist = all_pairs_shortest_paths(graph)
    if np.any(dist == _UNREACHABLE):
        raise GraphError("eccentricities are undefined on a disconnected graph")
    # Every row holds its own 0, so ``initial=0`` changes no maximum; it
    # lets the 0-vertex graph reduce to an empty array.
    return dist.max(axis=1, initial=0)


def diameter(graph: StaticGraph) -> int:
    """Static diameter ``d(G)``: the maximum hop distance over all pairs."""
    if graph.n <= 1:
        return 0
    return int(eccentricities(graph).max())


def radius(graph: StaticGraph) -> int:
    """Static radius: the minimum eccentricity over all vertices."""
    if graph.n <= 1:
        return 0
    return int(eccentricities(graph).min())


def is_connected(graph: StaticGraph) -> bool:
    """Whether the graph is connected (strongly connected for digraphs)."""
    if graph.n == 0:
        return True
    dist = bfs_distances(graph, 0)
    if np.any(dist == _UNREACHABLE):
        return False
    if not graph.directed:
        return True
    reverse_dist = bfs_distances(graph.reverse(), 0)
    return not np.any(reverse_dist == _UNREACHABLE)


def connected_components(graph: StaticGraph) -> list[list[int]]:
    """Connected components (weak components for digraphs), as vertex lists.

    Components are returned sorted by their smallest vertex, and vertices are
    sorted inside each component, so the output is deterministic.
    """
    n = graph.n
    if n == 0:
        return []
    undirected = graph if not graph.directed else StaticGraph(
        n, list(graph.arcs()), directed=False
    )
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        dist = bfs_distances(undirected, start)
        members = dist != _UNREACHABLE
        labels[members & (labels == -1)] = current
        current += 1
    components: list[list[int]] = [[] for _ in range(current)]
    for v, c in enumerate(labels.tolist()):
        components[c].append(v)
    return components


def degree_sequence(graph: StaticGraph) -> np.ndarray:
    """Non-increasing degree sequence of the graph."""
    return np.sort(graph.degrees())[::-1]


def density(graph: StaticGraph) -> float:
    """Edge density: ``m`` divided by the maximum possible number of edges."""
    n = graph.n
    if n < 2:
        return 0.0
    possible = n * (n - 1) if graph.directed else n * (n - 1) // 2
    return graph.m / possible
