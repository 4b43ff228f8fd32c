"""Tests for repro.graphs.static_graph.StaticGraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, InvalidEdgeError, InvalidVertexError
from repro.graphs.static_graph import StaticGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = StaticGraph(3)
        assert graph.n == 3
        assert graph.m == 0
        assert graph.num_arcs == 0

    def test_undirected_edges_stored_both_ways(self):
        graph = StaticGraph(3, [(0, 1), (1, 2)])
        assert graph.m == 2
        assert graph.num_arcs == 4
        assert set(graph.arcs()) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_directed_edges_stored_once(self):
        graph = StaticGraph(3, [(0, 1), (1, 2)], directed=True)
        assert graph.m == 2
        assert graph.num_arcs == 2
        assert set(graph.arcs()) == {(0, 1), (1, 2)}

    def test_duplicate_edges_collapsed(self):
        graph = StaticGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph(3, [(1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(InvalidVertexError):
            StaticGraph(3, [(0, 3)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError):
            StaticGraph(3, [(0, 1, 2)])  # type: ignore[list-item]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            StaticGraph(-1)

    def test_name_is_kept(self):
        assert StaticGraph(2, [(0, 1)], name="toy").name == "toy"


class TestQueries:
    @pytest.fixture
    def triangle(self) -> StaticGraph:
        return StaticGraph(3, [(0, 1), (1, 2), (0, 2)])

    def test_vertices_range(self, triangle):
        assert list(triangle.vertices()) == [0, 1, 2]

    def test_edges_iteration_is_canonical(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_has_edge_symmetric_for_undirected(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)

    def test_has_edge_missing(self):
        graph = StaticGraph(3, [(0, 1)])
        assert not graph.has_edge(1, 2)

    def test_has_edge_directed_respects_orientation(self):
        graph = StaticGraph(3, [(0, 1)], directed=True)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_out_neighbors(self, triangle):
        assert sorted(triangle.out_neighbors(0).tolist()) == [1, 2]

    def test_out_neighbors_invalid_vertex(self, triangle):
        with pytest.raises(InvalidVertexError):
            triangle.out_neighbors(5)

    def test_degrees(self, triangle):
        assert triangle.degrees().tolist() == [2, 2, 2]

    def test_degree_single_vertex(self, triangle):
        assert triangle.degree(1) == 2

    def test_edge_index_roundtrip(self, triangle):
        pairs = triangle.edge_pairs
        for index, (u, v) in enumerate(pairs.tolist()):
            assert triangle.edge_index(u, v) == index
            assert triangle.edge_index(v, u) == index

    def test_edge_index_missing_edge(self):
        graph = StaticGraph(3, [(0, 1)])
        with pytest.raises(InvalidEdgeError):
            graph.edge_index(1, 2)

    def test_arc_views_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.arc_tails[0] = 99

    def test_out_arcs_point_to_arc_arrays(self, triangle):
        arcs = triangle.out_arcs(0)
        tails = triangle.arc_tails
        assert np.all(tails[arcs] == 0)


class TestDerivedGraphs:
    def test_to_directed_doubles_arcs(self):
        graph = StaticGraph(3, [(0, 1), (1, 2)])
        directed = graph.to_directed()
        assert directed.directed
        assert directed.m == 4

    def test_to_directed_is_identity_for_digraph(self):
        graph = StaticGraph(2, [(0, 1)], directed=True)
        assert graph.to_directed() is graph

    def test_reverse_directed(self):
        graph = StaticGraph(3, [(0, 1), (1, 2)], directed=True)
        reversed_graph = graph.reverse()
        assert set(reversed_graph.arcs()) == {(1, 0), (2, 1)}

    def test_reverse_undirected_is_identity(self):
        graph = StaticGraph(3, [(0, 1)])
        assert graph.reverse() is graph

    def test_subgraph_reindexes(self):
        graph = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        sub = graph.subgraph([1, 2, 3])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_invalid_vertex(self):
        graph = StaticGraph(3, [(0, 1)])
        with pytest.raises(InvalidVertexError):
            graph.subgraph([0, 9])


def _random_graph(n: int, density: float, directed: bool, seed: int) -> StaticGraph:
    rng = np.random.default_rng(seed)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v) and rng.random() < density
    ]
    return StaticGraph(n, pairs, directed=directed, name=f"random-{seed}")


RANDOM_GRAPHS = [
    (n, density, directed, seed)
    for directed in (False, True)
    for seed, (n, density) in enumerate(
        [(0, 0.5), (1, 0.5), (4, 0.0), (2, 1.0), (6, 0.4), (13, 0.3), (30, 0.15)]
    )
]


def _assert_same_graph(actual: StaticGraph, expected: StaticGraph) -> None:
    assert actual == expected and hash(actual) == hash(expected)
    assert (actual.n, actual.directed, actual.name) == (
        expected.n,
        expected.directed,
        expected.name,
    )
    for got, want in (
        (actual.edge_pairs, expected.edge_pairs),
        (actual.arc_tails, expected.arc_tails),
        (actual.arc_heads, expected.arc_heads),
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    for vertex in range(expected.n):
        assert np.array_equal(actual.out_neighbors(vertex), expected.out_neighbors(vertex))
        assert np.array_equal(actual.out_arcs(vertex), expected.out_arcs(vertex))


@pytest.mark.parametrize("n, density, directed, seed", RANDOM_GRAPHS)
class TestDerivedGraphsMatchTheTuplePath:
    """Derived graphs built from the stored columns equal the edge-list constructor's."""

    def test_reverse(self, n, density, directed, seed):
        graph = _random_graph(n, density, directed, seed)
        flipped = [(v, u) for u, v in graph.arcs()] if directed else list(graph.edges())
        expected = StaticGraph(n, flipped, directed=directed, name=graph.name)
        _assert_same_graph(graph.reverse(), expected)
        _assert_same_graph(graph.reverse().reverse(), graph)

    def test_to_directed(self, n, density, directed, seed):
        graph = _random_graph(n, density, directed, seed)
        expected = StaticGraph(n, list(graph.arcs()), directed=True, name=graph.name)
        _assert_same_graph(graph.to_directed(), expected)

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_subgraph(self, n, density, directed, seed, order):
        graph = _random_graph(n, density, directed, seed)
        rng = np.random.default_rng(seed + 100)
        vertices = sorted(rng.choice(n, size=(2 * n) // 3, replace=False).tolist())
        if order == "shuffled":
            rng.shuffle(vertices)
        index = {vertex: position for position, vertex in enumerate(vertices)}
        edges = [(index[u], index[v]) for u, v in graph.edges() if u in index and v in index]
        expected = StaticGraph(len(vertices), edges, directed=directed, name=graph.name)
        _assert_same_graph(graph.subgraph(vertices), expected)


class TestEquality:
    def test_equal_graphs(self):
        a = StaticGraph(3, [(0, 1), (1, 2)])
        b = StaticGraph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_direction_flag(self):
        a = StaticGraph(2, [(0, 1)])
        b = StaticGraph(2, [(0, 1)], directed=True)
        assert a != b

    def test_repr_mentions_size(self):
        graph = StaticGraph(3, [(0, 1)], name="toy")
        assert "n=3" in repr(graph)
        assert "toy" in repr(graph)
