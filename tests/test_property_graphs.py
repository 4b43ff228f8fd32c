"""Property-based tests for the static graph substrate and G(n, p) helpers."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import UnionFind, to_networkx
from repro.erdosrenyi.gnp import is_gnp_connected
from repro.graphs.properties import (
    all_pairs_shortest_paths,
    bfs_distances,
    connected_components,
    is_connected,
)
from repro.graphs.static_graph import StaticGraph


@st.composite
def static_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    edges = [edge for edge, keep in zip(possible, flags) if keep]
    return StaticGraph(n, edges)


@settings(max_examples=80, deadline=None)
@given(static_graphs())
def test_bfs_matches_networkx(graph):
    nx_graph = to_networkx(graph)
    for source in range(graph.n):
        expected = nx.single_source_shortest_path_length(nx_graph, source)
        ours = bfs_distances(graph, source)
        for v in range(graph.n):
            assert ours[v] == expected.get(v, -1)


@settings(max_examples=80, deadline=None)
@given(static_graphs())
def test_connected_components_partition_vertices(graph):
    components = connected_components(graph)
    flattened = sorted(v for component in components for v in component)
    assert flattened == list(range(graph.n))
    assert is_connected(graph) == (len(components) <= 1)


@settings(max_examples=50, deadline=None)
@given(static_graphs())
def test_shortest_path_matrix_is_symmetric_with_zero_diagonal(graph):
    matrix = all_pairs_shortest_paths(graph)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0)


@settings(max_examples=50, deadline=None)
@given(static_graphs())
def test_triangle_inequality_where_defined(graph):
    matrix = all_pairs_shortest_paths(graph)
    n = graph.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i, k] >= 0 and matrix[k, j] >= 0 and matrix[i, j] >= 0:
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j]


@settings(max_examples=80, deadline=None)
@given(static_graphs())
def test_union_find_agrees_with_bfs_connectivity(graph):
    forest = UnionFind(max(graph.n, 1))
    for u, v in graph.edges():
        forest.union(u, v)
    components = connected_components(graph)
    assert forest.num_components == max(len(components), 1)
    edges = graph.edge_pairs
    tails = edges[:, 0] if edges.size else np.empty(0, dtype=np.int64)
    heads = edges[:, 1] if edges.size else np.empty(0, dtype=np.int64)
    assert is_gnp_connected(graph.n, tails, heads) == is_connected(graph)


@settings(max_examples=60, deadline=None)
@given(static_graphs(), st.data())
def test_subgraph_preserves_adjacency(graph, data):
    if graph.n == 0:
        return
    subset = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.n - 1),
            min_size=1,
            max_size=graph.n,
            unique=True,
        )
    )
    subset = sorted(subset)
    sub = graph.subgraph(subset)
    index = {vertex: i for i, vertex in enumerate(subset)}
    for u in subset:
        for v in subset:
            if u < v:
                assert graph.has_edge(u, v) == sub.has_edge(index[u], index[v])
