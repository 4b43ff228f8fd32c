"""Tests for repro.graphs.properties against networkx as an oracle."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError, InvalidVertexError
from repro.graphs import generators as gen
from repro.graphs.conversion import to_networkx
from repro.graphs.properties import (
    all_pairs_shortest_paths,
    bfs_distances,
    connected_components,
    density,
    diameter,
    eccentricities,
    is_connected,
    radius,
)
from repro.graphs.static_graph import StaticGraph


class TestBfsDistances:
    def test_path_distances(self):
        graph = gen.path_graph(5)
        assert bfs_distances(graph, 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_marked_minus_one(self):
        graph = StaticGraph(4, [(0, 1), (2, 3)])
        assert bfs_distances(graph, 0).tolist() == [0, 1, -1, -1]

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            bfs_distances(gen.path_graph(3), 7)

    def test_directed_respects_orientation(self):
        graph = StaticGraph(3, [(0, 1), (1, 2)], directed=True)
        assert bfs_distances(graph, 0).tolist() == [0, 1, 2]
        assert bfs_distances(graph, 2).tolist() == [-1, -1, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx_on_random_graphs(self, seed):
        graph = gen.erdos_renyi_graph(25, 0.15, seed=seed)
        nx_graph = to_networkx(graph)
        for source in range(0, 25, 7):
            expected = nx.single_source_shortest_path_length(nx_graph, source)
            ours = bfs_distances(graph, source)
            for v in range(25):
                assert ours[v] == expected.get(v, -1)


class TestDiameterAndRadius:
    def test_path_diameter(self):
        assert diameter(gen.path_graph(7)) == 6

    def test_cycle_diameter(self):
        assert diameter(gen.cycle_graph(8)) == 4

    def test_single_vertex(self):
        assert diameter(StaticGraph(1)) == 0
        assert radius(StaticGraph(1)) == 0

    def test_zero_vertices(self):
        assert diameter(StaticGraph(0)) == 0
        assert radius(StaticGraph(0)) == 0

    def test_zero_vertex_eccentricities(self):
        ecc = eccentricities(StaticGraph(0))
        assert ecc.dtype == np.int64
        assert ecc.shape == (0,)

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            diameter(StaticGraph(4, [(0, 1)]))

    def test_radius_le_diameter(self):
        graph = gen.grid_graph(3, 3)
        assert radius(graph) <= diameter(graph)

    @pytest.mark.parametrize("maker", [lambda: gen.grid_graph(3, 4), lambda: gen.hypercube_graph(3)])
    def test_matches_networkx(self, maker):
        graph = maker()
        assert diameter(graph) == nx.diameter(to_networkx(graph))


class TestConnectivity:
    def test_connected_path(self):
        assert is_connected(gen.path_graph(4))

    def test_disconnected(self):
        assert not is_connected(StaticGraph(4, [(0, 1), (2, 3)]))

    def test_empty_graph_is_connected(self):
        assert is_connected(StaticGraph(0))

    def test_directed_strong_connectivity(self):
        one_way = StaticGraph(3, [(0, 1), (1, 2)], directed=True)
        cycle = StaticGraph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        assert not is_connected(one_way)
        assert is_connected(cycle)

    def test_connected_components_partition(self):
        graph = StaticGraph(6, [(0, 1), (1, 2), (3, 4)])
        components = connected_components(graph)
        assert components == [[0, 1, 2], [3, 4], [5]]
        assert sum(len(c) for c in components) == 6

    def test_components_of_connected_graph(self):
        assert connected_components(gen.cycle_graph(5)) == [[0, 1, 2, 3, 4]]


class TestMatrixHelpers:
    def test_all_pairs_symmetric_for_undirected(self):
        graph = gen.grid_graph(3, 3)
        matrix = all_pairs_shortest_paths(graph)
        assert np.array_equal(matrix, matrix.T)

    def test_eccentricities_match_matrix(self):
        graph = gen.cycle_graph(6)
        matrix = all_pairs_shortest_paths(graph)
        assert np.array_equal(eccentricities(graph), matrix.max(axis=1))

    def test_density_bounds(self):
        assert density(gen.complete_graph(5)) == pytest.approx(1.0)
        assert density(gen.path_graph(5)) == pytest.approx(4 / 10)
        assert density(StaticGraph(1)) == 0.0
