"""Ablation benches for the kernel and search design choices.

* the single-source label-sweep journey kernel,
* batched all-pairs distance matrix (CSR engine) vs. the row-by-row variant,
* the one-off cost of building the cached CSR time-arc layout,
* the doubling and binary search that locates the threshold ``r(n)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distances import temporal_distance_matrix
from repro.core.guarantees import minimal_labels_for_reachability
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.labeling import normalized_urtn
from repro.core.timearc_csr import build_timearc_csr
from repro.graphs.generators import complete_graph, star_graph


@pytest.fixture(scope="module")
def clique_instance():
    return normalized_urtn(complete_graph(128, directed=True), seed=21)


def _row_by_row(network):
    """The distance matrix from one single-source sweep per row."""
    return np.stack([earliest_arrival_times(network, s) for s in range(network.n)])


class TestSingleSourceKernelAblation:
    def test_bench_vectorised_single_source(self, benchmark, clique_instance):
        arrival = benchmark(lambda: earliest_arrival_times(clique_instance, 0))
        assert arrival[0] == 0


class TestAllPairsKernelAblation:
    def test_bench_batched_distance_matrix(self, benchmark, clique_instance):
        matrix = benchmark(lambda: temporal_distance_matrix(clique_instance))
        assert matrix.shape[0] == clique_instance.n

    def test_bench_row_by_row_distance_matrix(self, benchmark, clique_instance):
        matrix = benchmark.pedantic(
            lambda: _row_by_row(clique_instance), rounds=1, iterations=1
        )
        assert matrix.shape[0] == clique_instance.n

    def test_bench_source_subset_rows(self, benchmark, clique_instance):
        sources = list(range(0, clique_instance.n, 4))
        matrix = benchmark(lambda: earliest_arrival_matrix(clique_instance, sources))
        assert matrix.shape == (len(sources), clique_instance.n)

    def test_batched_matches_row_by_row(self, clique_instance):
        fast = temporal_distance_matrix(clique_instance)
        slow = _row_by_row(clique_instance)
        assert np.array_equal(fast, slow)


class TestCSRBuildCost:
    def test_bench_build_timearc_csr(self, benchmark, clique_instance):
        csr = benchmark(lambda: build_timearc_csr(clique_instance))
        assert csr.num_arcs == clique_instance.num_time_arcs

    def test_cached_csr_is_reused(self, clique_instance):
        assert clique_instance.timearc_csr is clique_instance.timearc_csr


class TestThresholdSearchAblation:
    def test_bench_binary_search_threshold(self, benchmark):
        star = star_graph(48)
        value = benchmark.pedantic(
            lambda: minimal_labels_for_reachability(
                star, target_probability=0.8, trials=15, seed=22
            ),
            rounds=1,
            iterations=1,
        )
        assert value >= 2
