"""All-pairs temporal distances and the diameter, asked of the analysis handle.

The handle reduces one batched sweep with the plain functions of
:mod:`repro.core.distances`; these tests read its distance views.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis_api import NetworkAnalysis
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.labeling import normalized_urtn, uniform_random_labels
from repro.core.temporal_graph import TemporalGraph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, path_graph, star_graph
from repro.types import UNREACHABLE


class TestDistanceMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_single_source_kernel(self, seed):
        graph = erdos_renyi_graph(16, 0.3, seed=seed)
        network = uniform_random_labels(graph, labels_per_edge=2, lifetime=10, seed=seed)
        matrix = NetworkAnalysis(network).distances_from()
        for source in range(16):
            assert np.array_equal(matrix[source], earliest_arrival_times(network, source))

    def test_matches_reference_row_by_row(self, random_clique_instance):
        network = random_clique_instance
        fast = NetworkAnalysis(network).distances_from()
        slow = np.stack([earliest_arrival_times(network, s) for s in range(network.n)])
        assert np.array_equal(fast, slow)

    def test_diagonal_is_zero(self, random_clique_instance):
        matrix = NetworkAnalysis(random_clique_instance).distances_from()
        assert np.all(np.diag(matrix) == 0)

    def test_subset_of_sources(self, random_clique_instance):
        matrix = NetworkAnalysis(random_clique_instance).distances_from([3, 7])
        assert matrix.shape == (2, random_clique_instance.n)
        assert np.array_equal(matrix[0], earliest_arrival_times(random_clique_instance, 3))

    def test_empty_source_list(self, random_clique_instance):
        matrix = NetworkAnalysis(random_clique_instance).distances_from([])
        assert matrix.shape == (0, random_clique_instance.n)

    def test_no_labels(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[], []])
        matrix = NetworkAnalysis(network).distances_from()
        off_diag = matrix[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == UNREACHABLE)


class TestTemporalDiameter:
    def test_single_vertex(self):
        from repro.graphs.static_graph import StaticGraph

        analysis = NetworkAnalysis(TemporalGraph(StaticGraph(1), []))
        assert analysis.diameter == 0
        assert analysis.radius == 0

    def test_clique_diameter_at_most_lifetime(self, random_clique_instance):
        assert NetworkAnalysis(random_clique_instance).diameter <= random_clique_instance.lifetime

    def test_disconnected_gives_unreachable(self, small_path):
        # the small path cannot route 3 -> 0, so the diameter is UNREACHABLE
        assert NetworkAnalysis(small_path).diameter == UNREACHABLE

    def test_two_label_star_has_diameter_two(self, two_label_star):
        assert NetworkAnalysis(two_label_star).diameter == 2

    def test_diameter_ge_radius(self, random_clique_instance):
        analysis = NetworkAnalysis(random_clique_instance)
        assert analysis.diameter >= analysis.radius

    def test_eccentricities_max_is_diameter(self, random_clique_instance):
        ecc = NetworkAnalysis(random_clique_instance).eccentricities()
        matrix = earliest_arrival_matrix(random_clique_instance)
        assert ecc.max() == NetworkAnalysis(random_clique_instance).diameter == matrix.max()

    def test_normalized_clique_diameter_is_logarithmic(self):
        # Theorem 4 sanity check at a single moderate size: TD well below n/2.
        graph = complete_graph(128, directed=True)
        diam_values = []
        for seed in range(3):
            network = normalized_urtn(graph, seed=seed)
            diam_values.append(NetworkAnalysis(network).diameter)
        mean_diameter = float(np.mean(diam_values))
        assert mean_diameter < 128 / 4
        assert mean_diameter >= math.log(128)


class TestAverageDistance:
    def test_average_between_bounds(self, random_clique_instance):
        analysis = NetworkAnalysis(random_clique_instance)
        assert 0 < analysis.average_distance <= analysis.diameter

    def test_average_nan_when_nothing_reachable(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[], []])
        assert math.isnan(NetworkAnalysis(network).average_distance)

    def test_single_vertex_average_zero(self):
        from repro.graphs.static_graph import StaticGraph

        network = TemporalGraph(StaticGraph(1), [])
        assert NetworkAnalysis(network).average_distance == 0.0

    def test_star_average(self, two_label_star):
        avg = NetworkAnalysis(two_label_star).average_distance
        # centre-to-leaf and leaf-to-centre cost 1, leaf-to-leaf costs 2
        assert 1.0 < avg < 2.0
