"""Tests for repro.core.labeling: random and deterministic assignments."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.labeling import (
    assign_deterministic_labels,
    box_assignment,
    normalized_urtn,
    tree_broadcast_assignment,
    uniform_random_labels,
)
from repro.core.reachability import preserves_reachability
from repro.exceptions import GraphError, LabelingError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.properties import diameter
from repro.graphs.static_graph import StaticGraph
from repro.randomness.distributions import GeometricLabelDistribution


class TestUniformRandomLabels:
    def test_every_edge_gets_labels(self):
        graph = complete_graph(10)
        network = uniform_random_labels(graph, seed=0)
        assert all(len(labels) == 1 for _, labels in network.edge_label_items())

    def test_labels_within_lifetime(self):
        graph = complete_graph(12)
        network = uniform_random_labels(graph, lifetime=5, seed=1)
        assert network.lifetime == 5
        assert all(
            1 <= label <= 5
            for _, labels in network.edge_label_items()
            for label in labels
        )

    def test_multiple_labels_per_edge(self):
        graph = star_graph(8)
        network = uniform_random_labels(graph, labels_per_edge=6, lifetime=50, seed=2)
        counts = network.label_count_per_edge()
        assert counts.max() <= 6
        assert counts.min() >= 1

    def test_reproducibility(self):
        graph = complete_graph(8)
        a = uniform_random_labels(graph, seed=9)
        b = uniform_random_labels(graph, seed=9)
        assert a == b

    def test_distribution_must_match_lifetime(self):
        graph = path_graph(4)
        with pytest.raises(LabelingError):
            uniform_random_labels(
                graph, lifetime=10, distribution=GeometricLabelDistribution(5)
            )

    def test_custom_distribution_used(self):
        graph = complete_graph(20)
        dist = GeometricLabelDistribution(20, q=0.5)
        network = uniform_random_labels(graph, distribution=dist, seed=3)
        labels = [l for _, ls in network.edge_label_items() for l in ls]
        # A strongly front-loaded distribution should give a small mean label.
        assert np.mean(labels) < 5

    def test_empty_graph(self):
        graph = StaticGraph(3)
        network = uniform_random_labels(graph, lifetime=3, seed=0)
        assert network.total_labels == 0

    def test_uniform_labels_cover_range(self):
        graph = complete_graph(40)
        network = normalized_urtn(graph, seed=4)
        labels = np.asarray([l for _, ls in network.edge_label_items() for l in ls])
        # A uniform draw over {1..40} across 780 edges should span most of the range.
        assert labels.min() <= 3
        assert labels.max() >= 38


class TestNormalizedUrtn:
    def test_lifetime_equals_n(self):
        graph = complete_graph(17)
        network = normalized_urtn(graph, seed=0)
        assert network.lifetime == 17
        assert network.is_normalized

    def test_single_label_per_edge(self):
        graph = complete_graph(9, directed=True)
        network = normalized_urtn(graph, seed=0)
        assert network.total_labels == graph.m


class TestBoxAssignment:
    @pytest.mark.parametrize(
        "maker", [lambda: path_graph(7), lambda: cycle_graph(8), lambda: grid_graph(3, 3), lambda: star_graph(9)]
    )
    @pytest.mark.parametrize("mode", ["first", "middle", "random"])
    def test_preserves_reachability(self, maker, mode):
        graph = maker()
        network = box_assignment(graph, mode=mode, seed=5)
        assert preserves_reachability(network)

    def test_one_label_per_box(self):
        graph = path_graph(6)
        d = diameter(graph)
        network = box_assignment(graph, lifetime=30)
        assert all(len(labels) <= d for _, labels in network.edge_label_items())
        assert all(len(labels) >= 1 for _, labels in network.edge_label_items())

    def test_lifetime_smaller_than_diameter_rejected(self):
        graph = path_graph(10)
        with pytest.raises(LabelingError):
            box_assignment(graph, lifetime=3)

    def test_disconnected_rejected(self):
        graph = StaticGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            box_assignment(graph)

    def test_zero_vertex_graph(self):
        # The empty graph is connected with diameter 0: one box, no edges.
        network = box_assignment(StaticGraph(0))
        assert (network.n, network.total_labels, network.lifetime) == (0, 0, 1)
        assert preserves_reachability(network)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            box_assignment(path_graph(4), mode="banana")

    def test_labels_stay_within_boxes(self):
        graph = path_graph(5)
        q = 40
        d = diameter(graph)
        network = box_assignment(graph, lifetime=q, mode="random", seed=1)
        width = q / d
        for _, labels in network.edge_label_items():
            boxes = {math.ceil(label / width) for label in labels}
            assert len(boxes) == len(labels)


class TestTreeBroadcastAssignment:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: star_graph(10),
            lambda: path_graph(9),
            lambda: grid_graph(4, 3),
            lambda: cycle_graph(7),
            lambda: complete_graph(6),
        ],
    )
    def test_preserves_reachability(self, maker):
        graph = maker()
        network = tree_broadcast_assignment(graph)
        assert preserves_reachability(network)

    def test_total_labels_at_most_2_n_minus_1(self):
        graph = grid_graph(4, 4)
        network = tree_broadcast_assignment(graph)
        assert network.total_labels <= 2 * (graph.n - 1)

    def test_star_realises_the_paper_opt(self):
        graph = star_graph(12)
        network = tree_broadcast_assignment(graph)
        # OPT = 2m for the star (Theorem 6): two labels on each of the m edges.
        assert network.total_labels == 2 * graph.m

    def test_custom_root(self):
        graph = path_graph(6)
        network = tree_broadcast_assignment(graph, root=3)
        assert preserves_reachability(network)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            tree_broadcast_assignment(StaticGraph(4, [(0, 1), (2, 3)]))

    def test_too_small_lifetime_rejected(self):
        graph = path_graph(10)
        with pytest.raises(LabelingError):
            tree_broadcast_assignment(graph, lifetime=2)


class TestDeterministicAssignment:
    def test_mapping_applied(self):
        graph = star_graph(4)
        network = assign_deterministic_labels(graph, {(0, 1): [1, 2], (0, 2): [3]}, lifetime=5)
        assert network.labels_of(0, 1) == (1, 2)
        assert network.labels_of(0, 2) == (3,)
        assert network.labels_of(0, 3) == ()

    def test_unknown_edge_rejected(self):
        graph = star_graph(4)
        with pytest.raises(KeyError):
            assign_deterministic_labels(graph, {(1, 2): [1]})
