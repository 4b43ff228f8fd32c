"""Tests for repro.core.expansion: Algorithm 1 (the Expansion Process)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.expansion import ExpansionParameters, expansion_process
from repro.core.journeys import earliest_arrival_times
from repro.core.labeling import normalized_urtn
from repro.exceptions import ExperimentError, GraphError
from repro.graphs.generators import complete_graph, path_graph


class TestExpansionParameters:
    def test_suggest_returns_valid_parameters(self):
        params = ExpansionParameters.suggest(256)
        assert params.c1 > 0 and params.c2 > 0 and params.d >= 1

    def test_suggest_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            ExpansionParameters.suggest(3)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            ExpansionParameters(c1=-1.0, c2=8.0, d=1)
        with pytest.raises(ValueError):
            ExpansionParameters(c1=1.0, c2=8.0, d=0)

    def test_time_bound_formula(self):
        params = ExpansionParameters(c1=2.0, c2=4.0, d=3)
        n = 100
        assert params.time_bound(n) == pytest.approx(3 * 2.0 * math.log(n) + 2 * 3 * 4.0)

    def test_forward_intervals_are_contiguous(self):
        params = ExpansionParameters(c1=2.0, c2=4.0, d=3)
        n = 64
        previous_high = 0.0
        for i in range(1, params.d + 2):
            low, high = params.forward_interval(n, i)
            assert low == pytest.approx(previous_high)
            assert high > low
            previous_high = high
        # the matching interval starts where the forward layers end
        assert params.matching_interval(n)[0] == pytest.approx(previous_high)

    def test_backward_intervals_increase_as_i_decreases(self):
        params = ExpansionParameters(c1=2.0, c2=4.0, d=3)
        n = 64
        highs = [params.backward_interval(n, i)[1] for i in range(params.d + 1, 0, -1)]
        assert all(b > a for a, b in zip(highs, highs[1:]))

    def test_backward_chain_starts_after_matching_interval(self):
        params = ExpansionParameters(c1=2.0, c2=4.0, d=2)
        n = 64
        assert params.backward_interval(n, params.d + 1)[0] == pytest.approx(
            params.matching_interval(n)[1]
        )

    def test_interval_index_bounds(self):
        params = ExpansionParameters(c1=2.0, c2=4.0, d=2)
        with pytest.raises(ValueError):
            params.forward_interval(10, 0)
        with pytest.raises(ValueError):
            params.backward_interval(10, 4)


class TestExpansionProcess:
    @pytest.fixture(scope="class")
    def clique_instance(self):
        graph = complete_graph(96, directed=True)
        return normalized_urtn(graph, seed=42)

    def test_requires_clique(self):
        from repro.core.labeling import uniform_random_labels

        network = uniform_random_labels(path_graph(8), seed=0)
        with pytest.raises(GraphError):
            expansion_process(network, 0, 1)

    def test_requires_distinct_vertices(self, clique_instance):
        with pytest.raises(ExperimentError):
            expansion_process(clique_instance, 3, 3)

    def test_success_produces_valid_journey(self, clique_instance):
        result = expansion_process(clique_instance, 0, 1)
        assert result.success
        journey = result.journey
        assert journey is not None
        assert journey.source == 0 and journey.target == 1
        # every hop must exist in the instance with the stated label
        for edge in journey:
            assert clique_instance.has_time_edge(edge.u, edge.v, edge.label)

    def test_arrival_within_time_bound(self, clique_instance):
        result = expansion_process(clique_instance, 0, 1)
        assert result.success
        assert result.arrival_time <= result.time_bound

    def test_arrival_at_least_exact_distance(self, clique_instance):
        result = expansion_process(clique_instance, 2, 9)
        if result.success:
            exact = earliest_arrival_times(clique_instance, 2)[9]
            assert result.arrival_time >= exact

    def test_layer_sizes_match_layers(self, clique_instance):
        result = expansion_process(clique_instance, 4, 11)
        assert [len(layer) for layer in result.forward_layers] == result.forward_layer_sizes
        assert [len(layer) for layer in result.backward_layers] == result.backward_layer_sizes

    def test_layers_exclude_endpoints(self, clique_instance):
        result = expansion_process(clique_instance, 4, 11)
        for layer in result.forward_layers:
            assert 4 not in layer and 11 not in layer
        for layer in result.backward_layers:
            assert 4 not in layer and 11 not in layer

    def test_layer_count_is_d_plus_one(self, clique_instance):
        params = ExpansionParameters.suggest(clique_instance.n)
        result = expansion_process(clique_instance, 0, 5, params)
        assert len(result.forward_layer_sizes) == params.d + 1
        assert len(result.backward_layer_sizes) == params.d + 1

    def test_success_rate_is_high_on_moderate_cliques(self):
        graph = complete_graph(64, directed=True)
        successes = 0
        trials = 10
        rng = np.random.default_rng(7)
        for trial in range(trials):
            network = normalized_urtn(graph, seed=rng)
            s, t = rng.choice(64, size=2, replace=False)
            result = expansion_process(network, int(s), int(t))
            successes += int(result.success)
        assert successes >= 7

    def test_undirected_clique_accepted(self):
        graph = complete_graph(48, directed=False)
        network = normalized_urtn(graph, seed=5)
        result = expansion_process(network, 0, 1)
        # Remark 1: the undirected analysis carries over; the run must at least
        # complete and produce consistent layer bookkeeping.
        assert len(result.forward_layer_sizes) >= 1
        if result.success:
            assert result.journey is not None
            assert result.arrival_time <= result.time_bound
