"""Tests for repro.core.lifetime (Theorem 5 helpers)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import prefix_connectivity_time_reference
from repro.core.distances import temporal_diameter
from repro.core.labeling import assign_deterministic_labels, uniform_random_labels
from repro.core.lifetime import (
    prefix_connectivity_time,
    temporal_diameter_lower_bound_theorem5,
)
from repro.core.temporal_graph import TemporalGraph
from repro.graphs.generators import complete_graph, path_graph
from repro.graphs.static_graph import StaticGraph
from repro.types import UNREACHABLE


class TestPrefixConnectivityTime:
    def test_deterministic_path(self):
        graph = path_graph(4)
        network = assign_deterministic_labels(
            graph, {(0, 1): [5], (1, 2): [2], (2, 3): [9]}, lifetime=10
        )
        assert prefix_connectivity_time(network) == 9

    def test_unlabelled_edges_never_connect(self):
        graph = path_graph(4)
        network = TemporalGraph(graph, [[1], [], [2]], lifetime=4)
        assert prefix_connectivity_time(network) == UNREACHABLE

    def test_singleton(self):
        network = TemporalGraph(StaticGraph(1), [])
        assert prefix_connectivity_time(network) == 0

    def test_is_lower_bound_for_temporal_diameter(self):
        graph = complete_graph(20, directed=True)
        for seed in range(3):
            network = uniform_random_labels(graph, lifetime=60, seed=seed)
            prefix = prefix_connectivity_time(network)
            assert prefix <= temporal_diameter(network)

    def test_grows_with_lifetime(self):
        graph = complete_graph(24, directed=True)
        short = uniform_random_labels(graph, lifetime=24, seed=1)
        long = uniform_random_labels(graph, lifetime=24 * 8, seed=1)
        assert prefix_connectivity_time(long) > prefix_connectivity_time(short)


def _random_network(rng: np.random.Generator, directed: bool) -> TemporalGraph:
    """A small random (di)graph whose edges carry zero to three labels."""
    n = int(rng.integers(1, 9))
    possible = [
        (u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)
    ]
    density = rng.uniform(0.2, 1.0)
    edges = [edge for edge in possible if rng.random() < density]
    graph = StaticGraph(n, edges, directed=directed)
    lifetime = int(rng.integers(1, 3 * n + 2))
    labels = [
        rng.integers(1, lifetime + 1, size=rng.choice([0, 1, 1, 2, 3])).tolist()
        for _ in range(graph.m)
    ]
    return TemporalGraph(graph, labels, lifetime=lifetime)


class TestPrefixConnectivityMatchesReference:
    """The spanning-tree bottleneck equals the binary search over static probes."""

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_random_instances(self, directed):
        rng = np.random.default_rng(2024 + directed)
        outcomes = dict.fromkeys(
            ["unreachable", "one_vertex", "two_vertices", "multi_label", "connected"], 0
        )
        for _ in range(150):
            network = _random_network(rng, directed)
            expected = prefix_connectivity_time_reference(network)
            assert prefix_connectivity_time(network) == expected
            outcomes["unreachable"] += expected == UNREACHABLE
            outcomes["one_vertex"] += network.n == 1
            outcomes["two_vertices"] += network.n == 2
            outcomes["multi_label"] += bool(network.label_count_per_edge().max(initial=0) > 1)
            outcomes["connected"] += expected not in (0, UNREACHABLE)
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("lifetime_factor", [1, 4])
    def test_random_cliques(self, directed, lifetime_factor):
        graph = complete_graph(16, directed=directed)
        for seed in range(5):
            network = uniform_random_labels(
                graph, lifetime=16 * lifetime_factor, labels_per_edge=2, seed=seed
            )
            assert prefix_connectivity_time(network) == (
                prefix_connectivity_time_reference(network)
            )

    @pytest.mark.parametrize(
        "labels, expected",
        [([], 0), ([[3]], 3), ([[]], UNREACHABLE)],
        ids=["one-vertex", "two-vertices", "two-vertices-unlabelled"],
    )
    def test_tiny_graphs(self, labels, expected):
        graph = StaticGraph(len(labels) + 1, [(0, 1)] if labels else [])
        network = TemporalGraph(graph, labels, lifetime=4)
        assert prefix_connectivity_time(network) == expected
        assert prefix_connectivity_time_reference(network) == expected

    def test_disconnected_graph(self):
        graph = StaticGraph(5, [(0, 1), (1, 2), (3, 4)])
        network = TemporalGraph(graph, [[1, 2], [3], [1]], lifetime=3)
        assert prefix_connectivity_time(network) == UNREACHABLE
        assert prefix_connectivity_time_reference(network) == UNREACHABLE

    def test_exact_beyond_float64_integers(self):
        # 2**62 − 1 and 2**62 − 2 round to the same float64.
        network = TemporalGraph(path_graph(3), [[2**62 - 1], [2**62 - 2]], lifetime=2**62)
        assert prefix_connectivity_time(network) == 2**62 - 1
        assert prefix_connectivity_time_reference(network) == 2**62 - 1


class TestTheorem5Bound:
    def test_normalized_case_is_log_n(self):
        assert temporal_diameter_lower_bound_theorem5(100, 100) == pytest.approx(math.log(100))

    def test_scaling_with_lifetime(self):
        n = 64
        assert temporal_diameter_lower_bound_theorem5(n, 4 * n) == pytest.approx(4 * math.log(n))

    def test_sub_normalized_lifetime_clamped(self):
        n = 64
        assert temporal_diameter_lower_bound_theorem5(n, n // 2) == pytest.approx(math.log(n))

    def test_measured_diameter_scales_with_lifetime(self):
        n = 32
        graph = complete_graph(n, directed=True)
        short_diameters = []
        long_diameters = []
        for seed in range(3):
            short_diameters.append(
                temporal_diameter(uniform_random_labels(graph, lifetime=n, seed=seed))
            )
            long_diameters.append(
                temporal_diameter(uniform_random_labels(graph, lifetime=8 * n, seed=seed))
            )
        assert sum(long_diameters) > 2 * sum(short_diameters)
