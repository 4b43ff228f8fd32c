"""The csgraph answers of repro.graphs.properties against the BFS references.

``tests/oracles.py`` keeps the traversals the package used before it asked
``scipy.sparse.csgraph``: a frontier BFS, one BFS per source, a second BFS
over the reverse for strong connectivity and one BFS per new component.
Every static question must answer exactly as they do, on graphs and
digraphs, including the empty graph, one vertex, no edges, disconnected
graphs and digraphs whose arcs run one way.  So must the reachability
closure, which an undirected graph reads off its components and a digraph
computes by matmuls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    all_pairs_shortest_paths_reference,
    bfs_distances_reference,
    connected_components_reference,
    is_connected_reference,
)
from repro.exceptions import GraphError, InvalidVertexError
from repro.graphs.properties import (
    all_pairs_shortest_paths,
    bfs_distances,
    connected_components,
    diameter,
    eccentricities,
    is_connected,
    radius,
)
from repro.graphs import static_graph
from repro.graphs.static_graph import StaticGraph


def _random_graph(n: int, density: float, directed: bool, seed: int) -> StaticGraph:
    rng = np.random.default_rng(seed)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v) and rng.random() < density
    ]
    return StaticGraph(n, pairs, directed=directed)


GRAPHS = {
    "no-vertices": StaticGraph(0),
    "no-vertices-directed": StaticGraph(0, directed=True),
    "one-vertex": StaticGraph(1),
    "one-vertex-directed": StaticGraph(1, directed=True),
    "no-edges": StaticGraph(5),
    "no-edges-directed": StaticGraph(4, directed=True),
    "two-components": StaticGraph(7, [(0, 3), (3, 6), (1, 2), (2, 4)]),
    "isolated-vertex": StaticGraph(4, [(1, 2), (2, 3), (1, 3)]),
    "one-way-path": StaticGraph(4, [(0, 1), (1, 2), (2, 3)], directed=True),
    "one-way-star": StaticGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], directed=True),
    "into-star": StaticGraph(5, [(1, 0), (2, 0), (3, 0), (4, 0)], directed=True),
    "directed-cycle": StaticGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True),
    "two-way-pieces": StaticGraph(6, [(5, 4), (4, 5), (2, 0), (0, 2), (2, 1)], directed=True),
}
GRAPHS.update(
    {
        f"random-{'di' if directed else ''}graph-{n}-{density}": _random_graph(
            n, density, directed, seed
        )
        for directed in (False, True)
        for seed, (n, density) in enumerate(
            [(2, 1.0), (6, 0.2), (9, 0.3), (12, 0.15), (13, 0.5), (20, 0.1), (24, 0.3)]
        )
    }
)


def _assert_pinned(graph: StaticGraph) -> None:
    """Every static question answers as the references do."""
    for source in range(graph.n):
        got = bfs_distances(graph, source)
        assert got.dtype == np.int64
        assert np.array_equal(got, bfs_distances_reference(graph, source))
    matrix = all_pairs_shortest_paths(graph)
    expected = all_pairs_shortest_paths_reference(graph)
    assert matrix.dtype == np.int64 and matrix.shape == (graph.n, graph.n)
    assert np.array_equal(matrix, expected)
    assert is_connected(graph) is is_connected_reference(graph)
    assert connected_components(graph) == connected_components_reference(graph)
    if np.any(expected == -1):
        with pytest.raises(GraphError):
            eccentricities(graph)
        if graph.n > 1:
            for question in (diameter, radius):
                with pytest.raises(GraphError):
                    question(graph)
        return
    ecc = eccentricities(graph)
    assert ecc.dtype == np.int64
    assert np.array_equal(ecc, expected.max(axis=1, initial=0))
    assert diameter(graph) == int(expected.max(initial=0))
    assert radius(graph) == (int(ecc.min()) if graph.n > 1 else 0)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_matches_the_references(name):
    _assert_pinned(GRAPHS[name])


@pytest.mark.parametrize("name", ["no-vertices", "one-vertex", "two-components", "one-way-path"])
@pytest.mark.parametrize("offset", [-1, 0, 3])
def test_bad_source_raises(name, offset):
    graph = GRAPHS[name]
    source = -1 if offset == -1 else graph.n + offset
    with pytest.raises(InvalidVertexError):
        bfs_distances(graph, source)


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return StaticGraph(n, [pair for pair, keep in zip(pairs, flags) if keep], directed=directed)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_matches_the_references_on_random_graphs(graph):
    _assert_pinned(graph)


def _assert_closure(graph: StaticGraph) -> None:
    closure = graph.reachability_closure
    assert closure.dtype == np.bool_ and closure.shape == (graph.n, graph.n)
    assert not closure.flags.writeable
    assert np.array_equal(closure, all_pairs_shortest_paths_reference(graph) >= 0)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_closure_matches_the_bfs_reference(name):
    _assert_closure(GRAPHS[name])


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=14))
def test_closure_matches_the_bfs_reference_on_random_graphs(graph):
    _assert_closure(graph)


def test_an_undirected_closure_takes_no_matmul(monkeypatch):
    def refuse(*args):
        raise AssertionError("an undirected closure ran the BLAS matmul")

    monkeypatch.setattr(static_graph, "_reachability_closure", refuse)
    for graph in (StaticGraph(0), StaticGraph(3), StaticGraph(6, [(0, 1), (2, 3), (3, 4)])):
        _assert_closure(graph)
