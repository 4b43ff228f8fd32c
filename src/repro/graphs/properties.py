"""Static-graph properties: hop distances, diameter, connectivity, degrees.

The Price-of-Randomness results (Theorems 7–8) are phrased in terms of the
*static* diameter ``d(G)`` and the edge count ``m``; the Theorem 5 lower bound
needs connectivity of edge-induced subgraphs.  Everything here is exact: each
question is one :mod:`scipy.sparse.csgraph` call on the graph's arcs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.sparse.csgraph import shortest_path

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

#: Sentinel distance for unreachable vertices in hop-distance outputs.
_UNREACHABLE = -1


def _adjacency(n: int, tails: np.ndarray, heads: np.ndarray) -> csr_array:
    """The ``(n, n)`` adjacency of the arcs ``tails[i] → heads[i]`` for csgraph."""
    return csr_array((np.ones(tails.size), (tails, heads)), shape=(n, n))


def _arc_adjacency(graph: StaticGraph) -> csr_array:
    # An undirected graph stores both directions of every edge.
    return _adjacency(graph.n, graph.arc_tails, graph.arc_heads)


def _hops(distances: np.ndarray) -> np.ndarray:
    """csgraph's float distances as ``int64`` hops, −1 where unreachable."""
    distances[np.isinf(distances)] = _UNREACHABLE
    return distances.astype(np.int64)


def bfs_distances(graph: StaticGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (−1 when unreachable)."""
    if not graph.has_vertex(source):
        raise InvalidVertexError(source, graph.n)
    return _hops(shortest_path(_arc_adjacency(graph), unweighted=True, indices=source))


def all_pairs_shortest_paths(graph: StaticGraph) -> np.ndarray:
    """All-pairs hop distances as an ``(n, n)`` array (−1 when unreachable)."""
    return _hops(shortest_path(_arc_adjacency(graph), unweighted=True))


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
    count, _ = _csgraph_components(_arc_adjacency(graph), connection="strong")
    return count <= 1


def _component_labels(graph: StaticGraph) -> np.ndarray:
    """The weak component of every vertex, as csgraph numbers them."""
    return _csgraph_components(_arc_adjacency(graph), connection="weak")[1]


def connected_components(graph: StaticGraph) -> list[list[int]]:
    """Connected components (weak components for digraphs), as vertex lists.

    Components are returned sorted by their smallest vertex, and vertices are
    sorted inside each component, so the output is deterministic.
    """
    if graph.n == 0:
        return []
    labels = _component_labels(graph)
    members = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[members])) + 1
    components = [part.tolist() for part in np.split(members, starts)]
    return sorted(components, key=lambda component: component[0])


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
