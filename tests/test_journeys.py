"""Tests for repro.core.journeys: foremost journeys and temporal distances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.journeys import (
    earliest_arrival_times,
    foremost_journey,
    foremost_journey_tree,
    temporal_distance,
)
from repro.core.labeling import assign_deterministic_labels, normalized_urtn, uniform_random_labels
from repro.core.temporal_graph import TemporalGraph
from repro.exceptions import UnreachableVertexError
from repro.graphs.generators import complete_graph, erdos_renyi_graph, path_graph, star_graph
from repro.types import UNREACHABLE

from oracles import earliest_arrival_times_reference


class TestEarliestArrival:
    def test_simple_path(self, small_path):
        arrival = earliest_arrival_times(small_path, 0)
        assert arrival.tolist() == [0, 1, 3, 5]

    def test_reverse_direction_blocked_by_decreasing_labels(self, small_path):
        arrival = earliest_arrival_times(small_path, 3)
        assert arrival[3] == 0
        assert arrival[2] == 5
        # labels decrease towards vertex 0, so the journey cannot continue
        assert arrival[1] == UNREACHABLE
        assert arrival[0] == UNREACHABLE

    def test_source_has_zero_arrival(self, random_clique_instance):
        arrival = earliest_arrival_times(random_clique_instance, 5)
        assert arrival[5] == 0

    def test_equal_labels_cannot_chain(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[2], [2]])
        arrival = earliest_arrival_times(network, 0)
        assert arrival[1] == 2
        assert arrival[2] == UNREACHABLE

    def test_start_time_excludes_early_labels(self, small_path):
        arrival = earliest_arrival_times(small_path, 0, start_time=2)
        assert arrival.tolist()[0] == 2
        # first edge has label 1 <= start_time, so nothing is reachable
        assert arrival[1] == UNREACHABLE

    def test_no_labels_means_nothing_reachable(self):
        graph = path_graph(4)
        network = TemporalGraph(graph, [[], [], []])
        arrival = earliest_arrival_times(network, 0)
        assert arrival[1:].tolist() == [UNREACHABLE] * 3

    def test_invalid_source(self, small_path):
        with pytest.raises(ValueError):
            earliest_arrival_times(small_path, 9)

    def test_multi_label_edges_use_best_label(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[4, 1], [5, 2]])
        arrival = earliest_arrival_times(network, 0)
        assert arrival.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_implementation(self, seed):
        graph = erdos_renyi_graph(18, 0.25, seed=seed)
        network = uniform_random_labels(graph, labels_per_edge=2, lifetime=12, seed=seed)
        for source in range(0, 18, 5):
            fast = earliest_arrival_times(network, source)
            slow = earliest_arrival_times_reference(network, source)
            assert np.array_equal(fast, slow)

    def test_clique_always_reaches_everyone(self, random_clique_instance):
        arrival = earliest_arrival_times(random_clique_instance, 0)
        assert np.all(arrival < UNREACHABLE)


class TestForemostJourney:
    def test_journey_is_valid_and_foremost(self, small_path):
        journey = foremost_journey(small_path, 0, 3)
        assert journey.source == 0 and journey.target == 3
        assert journey.arrival_time == 5
        assert journey.labels() == (1, 3, 5)

    def test_trivial_journey(self, small_path):
        journey = foremost_journey(small_path, 2, 2)
        assert journey.hops == 0
        assert journey.arrival_time == 0

    def test_unreachable_raises(self, small_path):
        with pytest.raises(UnreachableVertexError):
            foremost_journey(small_path, 3, 0)

    def test_journey_arrival_matches_distance(self, random_clique_instance):
        network = random_clique_instance
        for target in (1, 7, 13, 23):
            journey = foremost_journey(network, 0, target)
            assert journey.arrival_time == temporal_distance(network, 0, target)

    def test_journey_uses_existing_time_edges(self, random_clique_instance):
        journey = foremost_journey(random_clique_instance, 2, 9)
        for edge in journey:
            assert random_clique_instance.has_time_edge(edge.u, edge.v, edge.label)

    def test_journey_on_star_uses_two_hops(self, two_label_star):
        journey = foremost_journey(two_label_star, 1, 2)
        assert journey.hops == 2
        assert journey.vertices() == (1, 0, 2)
        assert journey.labels() == (1, 2)

    def test_tree_predecessors_consistent(self, random_clique_instance):
        arrival, predecessor = foremost_journey_tree(random_clique_instance, 4)
        labels = random_clique_instance.time_arc_labels
        heads = random_clique_instance.time_arc_heads
        for v in range(random_clique_instance.n):
            if v == 4:
                assert predecessor[v] == -1
                continue
            arc = predecessor[v]
            assert arc >= 0
            assert heads[arc] == v
            assert labels[arc] == arrival[v]


class TestTemporalDistance:
    def test_distance_zero_to_self(self, small_path):
        assert temporal_distance(small_path, 1, 1) == 0

    def test_distance_unreachable_is_sentinel(self, small_path):
        assert temporal_distance(small_path, 3, 0) == UNREACHABLE

    def test_direct_edge_on_clique_bounds_distance(self):
        graph = complete_graph(12, directed=True)
        network = normalized_urtn(graph, seed=3)
        for target in range(1, 12):
            direct_label = network.labels_of(0, target)[0]
            assert temporal_distance(network, 0, target) <= direct_label

    def test_star_single_label_blocks_second_hop(self):
        graph = star_graph(4)
        network = assign_deterministic_labels(
            graph, {(0, 1): [3], (0, 2): [2], (0, 3): [1]}, lifetime=4
        )
        # 1 -> 0 at time 3, but both other edges are only available earlier.
        assert temporal_distance(network, 1, 2) == UNREACHABLE
        # 3 -> 0 at time 1, then 0 -> 2 at time 2 works.
        assert temporal_distance(network, 3, 2) == 2
