"""Tests for repro.graphs.generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.properties import degree_sequence, diameter, is_connected
from repro.graphs.static_graph import StaticGraph


class TestCompleteGraph:
    def test_undirected_edge_count(self):
        graph = gen.complete_graph(6)
        assert graph.m == 15
        assert not graph.directed

    def test_directed_edge_count(self):
        graph = gen.complete_graph(6, directed=True)
        assert graph.m == 30
        assert graph.directed

    def test_diameter_is_one(self):
        assert diameter(gen.complete_graph(5)) == 1

    def test_single_vertex(self):
        assert gen.complete_graph(1).m == 0


class TestStarGraph:
    def test_structure(self):
        graph = gen.star_graph(6)
        assert graph.m == 5
        assert graph.degree(0) == 5
        assert all(graph.degree(v) == 1 for v in range(1, 6))

    def test_diameter_two(self):
        assert diameter(gen.star_graph(6)) == 2

    def test_degenerate_sizes(self):
        assert gen.star_graph(1).m == 0
        assert gen.star_graph(2).m == 1


class TestPathAndCycle:
    def test_path_edges(self):
        graph = gen.path_graph(5)
        assert graph.m == 4
        assert diameter(graph) == 4

    def test_cycle_edges(self):
        graph = gen.cycle_graph(6)
        assert graph.m == 6
        assert diameter(graph) == 3

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            gen.cycle_graph(2)


class TestGridAndHypercube:
    def test_grid_counts(self):
        graph = gen.grid_graph(3, 4)
        assert graph.n == 12
        assert graph.m == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert diameter(graph) == (3 - 1) + (4 - 1)

    def test_hypercube_counts(self):
        graph = gen.hypercube_graph(4)
        assert graph.n == 16
        assert graph.m == 4 * 16 // 2
        assert diameter(graph) == 4

    def test_hypercube_dimension_zero(self):
        graph = gen.hypercube_graph(0)
        assert graph.n == 1
        assert graph.m == 0


class TestBipartiteAndTrees:
    def test_complete_bipartite(self):
        graph = gen.complete_bipartite_graph(3, 4)
        assert graph.n == 7
        assert graph.m == 12
        assert diameter(graph) == 2

    def test_binary_tree(self):
        graph = gen.binary_tree(3)
        assert graph.n == 15
        assert graph.m == 14
        assert is_connected(graph)

    def test_random_tree_is_spanning_tree(self):
        graph = gen.random_tree(20, seed=3)
        assert graph.m == 19
        assert is_connected(graph)

    def test_random_tree_reproducible(self):
        a = gen.random_tree(15, seed=11)
        b = gen.random_tree(15, seed=11)
        assert a == b

    def test_random_tree_tiny(self):
        assert gen.random_tree(1).m == 0
        assert gen.random_tree(2).m == 1


class TestErdosRenyi:
    def test_p_zero_has_no_edges(self):
        assert gen.erdos_renyi_graph(10, 0.0, seed=0).m == 0

    def test_p_one_is_complete(self):
        graph = gen.erdos_renyi_graph(10, 1.0, seed=0)
        assert graph.m == 45

    def test_reproducible(self):
        a = gen.erdos_renyi_graph(30, 0.2, seed=5)
        b = gen.erdos_renyi_graph(30, 0.2, seed=5)
        assert a == b

    def test_directed_variant(self):
        graph = gen.erdos_renyi_graph(10, 1.0, directed=True, seed=0)
        assert graph.m == 90

    def test_edge_count_near_expectation(self):
        n, p = 60, 0.3
        graph = gen.erdos_renyi_graph(n, p, seed=42)
        expected = p * n * (n - 1) / 2
        assert abs(graph.m - expected) < 4 * np.sqrt(expected)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi_graph(10, 1.5)


class TestWheelBarbellLollipop:
    def test_wheel(self):
        graph = gen.wheel_graph(7)
        assert graph.m == 12
        assert graph.degree(0) == 6
        assert diameter(graph) == 2

    def test_wheel_too_small(self):
        with pytest.raises(ValueError):
            gen.wheel_graph(3)

    def test_barbell(self):
        graph = gen.barbell_graph(4, 2)
        assert graph.n == 10
        assert is_connected(graph)
        assert graph.m == 2 * 6 + 3

    def test_lollipop(self):
        graph = gen.lollipop_graph(5, 3)
        assert graph.n == 8
        assert is_connected(graph)
        assert graph.m == 10 + 3

    def test_degree_sequence_sorted(self):
        graph = gen.star_graph(5)
        assert degree_sequence(graph).tolist() == [4, 1, 1, 1, 1]


def _ordered_pairs(n: int, directed: bool) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]


def _assert_equals_the_tuple_path(graph, edges, directed, name):
    expected = StaticGraph(graph.n, edges, directed=directed, name=name)
    assert graph == expected and hash(graph) == hash(expected)
    assert (graph.directed, graph.name) == (directed, name)
    for column in ("edge_pairs", "arc_tails", "arc_heads"):
        got, want = getattr(graph, column), getattr(expected, column)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), column


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("directed", [False, True])
class TestArrayBuiltGeneratorsMatchTheTuplePath:
    """The clique and G(n, p) build arrays; the edge-list constructor agrees."""

    def test_complete_graph(self, n, directed):
        graph = gen.complete_graph(n, directed=directed)
        _assert_equals_the_tuple_path(graph, _ordered_pairs(n, directed), directed, f"K_{n}")

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_erdos_renyi_graph(self, n, directed, p, seed):
        graph = gen.erdos_renyi_graph(n, p, directed=directed, seed=seed)
        pairs = _ordered_pairs(n, directed)
        # One uniform draw per candidate pair, in pair order.
        keep = np.random.default_rng(seed).random(len(pairs)) < p
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
        _assert_equals_the_tuple_path(graph, edges, directed, f"gnp_{n}_{p:g}")
