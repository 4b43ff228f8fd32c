"""Tests for repro.core.reachability."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis_api import NetworkAnalysis
from repro.core.labeling import assign_deterministic_labels, normalized_urtn, uniform_random_labels
from repro.core.reachability import (
    is_temporally_connected,
    preserves_reachability,
    reachability_matrix,
    reachable_fraction,
    reachable_set,
    static_reachability_matrix,
)
from repro.core.temporal_graph import TemporalGraph
from repro.graphs import static_graph
from repro.graphs.generators import complete_graph, path_graph, star_graph
from repro.graphs.properties import all_pairs_shortest_paths
from repro.graphs.static_graph import StaticGraph


class TestReachabilityMatrix:
    def test_diagonal_true(self, random_clique_instance):
        matrix = reachability_matrix(random_clique_instance)
        assert np.all(np.diag(matrix))

    def test_clique_fully_reachable(self, random_clique_instance):
        assert reachability_matrix(random_clique_instance).all()

    def test_path_with_decreasing_labels(self, small_path):
        matrix = reachability_matrix(small_path)
        assert matrix[0, 3]
        assert not matrix[3, 0]

    def test_reachable_set(self, small_path):
        assert reachable_set(small_path, 0).tolist() == [0, 1, 2, 3]
        assert reachable_set(small_path, 3).tolist() == [2, 3]


#: Graphs whose closure needs several BFS levels, one-way arcs, components
#: that never meet, and the degenerate sizes.
_CLOSURE_GRAPHS = {
    "directed": lambda: StaticGraph(
        5, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 3)], directed=True
    ),
    "undirected": lambda: path_graph(6),
    "disconnected": lambda: StaticGraph(6, [(0, 1), (1, 2), (3, 4)]),
    "one-vertex": lambda: StaticGraph(1),
    "zero-vertex": lambda: StaticGraph(0),
}


class TestStaticClosure:
    def test_two_calls_return_the_same_array(self):
        graph = star_graph(6)
        assert static_reachability_matrix(graph) is static_reachability_matrix(graph)

    def test_read_only(self):
        closure = static_reachability_matrix(path_graph(4))
        with pytest.raises(ValueError):
            closure[0, 3] = False

    @pytest.mark.parametrize("name", sorted(_CLOSURE_GRAPHS))
    def test_equals_the_bfs_distances(self, name):
        graph = _CLOSURE_GRAPHS[name]()
        closure = static_reachability_matrix(graph)
        assert closure.dtype == np.bool_
        np.testing.assert_array_equal(closure, all_pairs_shortest_paths(graph) >= 0)

    def test_handles_over_one_graph_compute_it_once(self, monkeypatch):
        calls = []
        compute = static_graph._reachability_closure

        def counted(*args):
            calls.append(args[0])
            return compute(*args)

        monkeypatch.setattr(static_graph, "_reachability_closure", counted)
        graph = complete_graph(8, directed=True)
        for seed in (0, 1):
            handle = NetworkAnalysis(normalized_urtn(graph, seed=seed))
            assert handle.preserves_reachability()
        assert calls == [8]

    def test_racing_threads_get_the_finished_closure(self):
        # The slot is filled without a lock: a thread that loses the race
        # computes an equal array, and none may see a half-built one.
        graphs = [path_graph(40) for _ in range(16)]
        expected = all_pairs_shortest_paths(graphs[0]) >= 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                racing = [graph for graph in graphs for _ in range(4)]
                closures = list(pool.map(static_reachability_matrix, racing, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for closure in closures:
            assert not closure.flags.writeable
            np.testing.assert_array_equal(closure, expected)
        for graph in graphs:
            assert static_reachability_matrix(graph) is static_reachability_matrix(graph)


class TestReachableFraction:
    def test_full_reachability_gives_one(self, random_clique_instance):
        assert reachable_fraction(random_clique_instance) == 1.0

    def test_partial_reachability(self, small_path):
        fraction = reachable_fraction(small_path)
        assert 0.0 < fraction < 1.0

    def test_singleton_graph(self):
        network = TemporalGraph(StaticGraph(1), [])
        assert reachable_fraction(network) == 1.0

    def test_no_labels_fraction_zero(self):
        network = TemporalGraph(path_graph(3), [[], []])
        assert reachable_fraction(network) == 0.0


class TestTreachPredicate:
    def test_clique_single_label_preserves_reachability(self):
        # The clique is the only graph for which one label per edge suffices.
        graph = complete_graph(10, directed=True)
        network = normalized_urtn(graph, seed=1)
        assert preserves_reachability(network)
        assert is_temporally_connected(network)

    def test_star_single_label_fails(self):
        graph = star_graph(6)
        network = uniform_random_labels(graph, labels_per_edge=1, seed=0)
        assert not preserves_reachability(network)

    def test_star_with_two_increasing_labels_succeeds(self, two_label_star):
        assert preserves_reachability(two_label_star)
        assert is_temporally_connected(two_label_star)

    def test_disconnected_graph_ignores_missing_static_paths(self):
        # Two components, each internally temporally reachable: Treach holds
        # even though the graph is not temporally connected as a whole.
        graph = StaticGraph(4, [(0, 1), (2, 3)])
        network = assign_deterministic_labels(
            graph, {(0, 1): [1, 2], (2, 3): [1, 2]}, lifetime=4
        )
        assert preserves_reachability(network)
        assert not is_temporally_connected(network)

    def test_disconnected_graph_with_unreachable_component_fails(self):
        graph = StaticGraph(4, [(0, 1), (2, 3)])
        network = assign_deterministic_labels(graph, {(0, 1): [1, 2]}, lifetime=4)
        assert not preserves_reachability(network)

    def test_singleton(self):
        network = TemporalGraph(StaticGraph(1), [])
        assert preserves_reachability(network)
        assert is_temporally_connected(network)
