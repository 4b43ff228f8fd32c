"""Tests for repro.core.distances: all-pairs temporal distances and the diameter."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.distances import (
    average_temporal_distance,
    temporal_diameter,
    temporal_distance_matrix,
    temporal_eccentricities,
    temporal_radius,
)
from repro.core.journeys import earliest_arrival_times
from repro.core.labeling import normalized_urtn, uniform_random_labels
from repro.core.temporal_graph import TemporalGraph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, path_graph, star_graph
from repro.types import UNREACHABLE


class TestDistanceMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_single_source_kernel(self, seed):
        graph = erdos_renyi_graph(16, 0.3, seed=seed)
        network = uniform_random_labels(graph, labels_per_edge=2, lifetime=10, seed=seed)
        matrix = temporal_distance_matrix(network)
        for source in range(16):
            assert np.array_equal(matrix[source], earliest_arrival_times(network, source))

    def test_matches_reference_row_by_row(self, random_clique_instance):
        network = random_clique_instance
        fast = temporal_distance_matrix(network)
        slow = np.stack([earliest_arrival_times(network, s) for s in range(network.n)])
        assert np.array_equal(fast, slow)

    def test_diagonal_is_zero(self, random_clique_instance):
        matrix = temporal_distance_matrix(random_clique_instance)
        assert np.all(np.diag(matrix) == 0)

    def test_subset_of_sources(self, random_clique_instance):
        matrix = temporal_distance_matrix(random_clique_instance, sources=[3, 7])
        assert matrix.shape == (2, random_clique_instance.n)
        assert np.array_equal(matrix[0], earliest_arrival_times(random_clique_instance, 3))

    def test_empty_source_list(self, random_clique_instance):
        matrix = temporal_distance_matrix(random_clique_instance, sources=[])
        assert matrix.shape == (0, random_clique_instance.n)

    def test_no_labels(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[], []])
        matrix = temporal_distance_matrix(network)
        off_diag = matrix[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == UNREACHABLE)


class TestTemporalDiameter:
    def test_single_vertex(self):
        from repro.graphs.static_graph import StaticGraph

        network = TemporalGraph(StaticGraph(1), [])
        assert temporal_diameter(network) == 0
        assert temporal_radius(network) == 0

    def test_clique_diameter_at_most_lifetime(self, random_clique_instance):
        assert temporal_diameter(random_clique_instance) <= random_clique_instance.lifetime

    def test_disconnected_gives_unreachable(self, small_path):
        # the small path cannot route 3 -> 0, so the diameter is UNREACHABLE
        assert temporal_diameter(small_path) == UNREACHABLE

    def test_two_label_star_has_diameter_two(self, two_label_star):
        assert temporal_diameter(two_label_star) == 2

    def test_diameter_ge_radius(self, random_clique_instance):
        assert temporal_diameter(random_clique_instance) >= temporal_radius(random_clique_instance)

    def test_eccentricities_max_is_diameter(self, random_clique_instance):
        ecc = temporal_eccentricities(random_clique_instance)
        assert ecc.max() == temporal_diameter(random_clique_instance)

    def test_normalized_clique_diameter_is_logarithmic(self):
        # Theorem 4 sanity check at a single moderate size: TD well below n/2.
        graph = complete_graph(128, directed=True)
        diam_values = []
        for seed in range(3):
            network = normalized_urtn(graph, seed=seed)
            diam_values.append(temporal_diameter(network))
        mean_diameter = float(np.mean(diam_values))
        assert mean_diameter < 128 / 4
        assert mean_diameter >= math.log(128)


class TestAverageDistance:
    def test_average_between_bounds(self, random_clique_instance):
        avg = average_temporal_distance(random_clique_instance)
        assert 0 < avg <= temporal_diameter(random_clique_instance)

    def test_average_nan_when_nothing_reachable(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[], []])
        assert math.isnan(average_temporal_distance(network))

    def test_single_vertex_average_zero(self):
        from repro.graphs.static_graph import StaticGraph

        network = TemporalGraph(StaticGraph(1), [])
        assert average_temporal_distance(network) == 0.0

    def test_star_average(self, two_label_star):
        avg = average_temporal_distance(two_label_star)
        # centre-to-leaf and leaf-to-centre cost 1, leaf-to-leaf costs 2
        assert 1.0 < avg < 2.0
