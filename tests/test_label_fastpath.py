"""The direct-to-CSR label-sampling fast path is bit-identical to the mapping path."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import assert_layout_matches, timearc_csr_reference
from repro.core.labeling import uniform_random_labels
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import build_timearc_csr_from_arrays
from repro.exceptions import LabelingError, LifetimeError
from repro.graphs.generators import complete_graph, path_graph, star_graph
from repro.graphs.static_graph import StaticGraph


def _legacy(graph, matrix, lifetime):
    labels = [tuple(sorted(set(row))) for row in matrix.tolist()]
    return TemporalGraph(graph, labels, lifetime=lifetime)


@pytest.mark.parametrize(
    "graph, r",
    [
        (complete_graph(24, directed=True), 1),
        (complete_graph(16, directed=False), 3),
        (star_graph(20), 4),
        (path_graph(12), 2),
    ],
    ids=["directed-clique", "undirected-clique", "star", "path"],
)
class TestFromLabelMatrixEquivalence:
    def test_networks_are_bit_identical(self, graph, r):
        rng = np.random.default_rng(42)
        matrix = rng.integers(1, graph.n + 1, size=(graph.m, r))
        legacy = _legacy(graph, matrix, graph.n)
        fast = TemporalGraph.from_label_matrix(graph, matrix, lifetime=graph.n)

        assert np.array_equal(legacy.time_arc_tails, fast.time_arc_tails)
        assert np.array_equal(legacy.time_arc_heads, fast.time_arc_heads)
        assert np.array_equal(legacy.time_arc_labels, fast.time_arc_labels)
        assert np.array_equal(legacy.time_arc_edge_index, fast.time_arc_edge_index)
        assert_layout_matches(legacy.timearc_csr, fast.timearc_csr)
        assert legacy == fast
        assert hash(legacy) == hash(fast)

    def test_label_queries_match(self, graph, r):
        rng = np.random.default_rng(7)
        matrix = rng.integers(1, graph.n + 1, size=(graph.m, r))
        legacy = _legacy(graph, matrix, graph.n)
        fast = TemporalGraph.from_label_matrix(graph, matrix, lifetime=graph.n)

        assert fast.total_labels == legacy.total_labels
        assert np.array_equal(fast.label_count_per_edge(), legacy.label_count_per_edge())
        for edge_index in range(graph.m):
            assert fast.labels_of_edge_index(edge_index) == legacy.labels_of_edge_index(
                edge_index
            )
        assert list(fast.edge_label_items()) == list(legacy.edge_label_items())

    def test_derived_networks_match(self, graph, r):
        rng = np.random.default_rng(3)
        matrix = rng.integers(1, graph.n + 1, size=(graph.m, r))
        legacy = _legacy(graph, matrix, graph.n)
        fast = TemporalGraph.from_label_matrix(graph, matrix, lifetime=graph.n)
        cutoff = max(1, graph.n // 2)
        assert fast.restricted_to_max_label(cutoff) == legacy.restricted_to_max_label(cutoff)
        assert fast.with_lifetime(graph.n + 5) == legacy.with_lifetime(graph.n + 5)


class TestFromLabelMatrixValidation:
    def test_one_dimensional_matrix_means_one_label_per_edge(self):
        graph = path_graph(5)
        draws = np.array([1, 2, 3, 4])
        network = TemporalGraph.from_label_matrix(graph, draws, lifetime=5)
        assert network.total_labels == 4

    def test_wrong_row_count_rejected(self):
        with pytest.raises(LabelingError):
            TemporalGraph.from_label_matrix(path_graph(5), np.ones((2, 1), dtype=np.int64))

    def test_non_positive_labels_rejected(self):
        graph = path_graph(3)
        with pytest.raises(LabelingError):
            TemporalGraph.from_label_matrix(graph, np.array([[0], [1]]))

    def test_labels_above_lifetime_rejected(self):
        graph = path_graph(3)
        with pytest.raises(LifetimeError):
            TemporalGraph.from_label_matrix(graph, np.array([[1], [9]]), lifetime=4)

    def test_default_lifetime_is_max_label(self):
        graph = path_graph(3)
        network = TemporalGraph.from_label_matrix(graph, np.array([[2], [6]]))
        assert network.lifetime == 6

    def test_duplicate_draws_collapse(self):
        graph = path_graph(3)
        network = TemporalGraph.from_label_matrix(graph, np.array([[2, 2, 2], [1, 3, 1]]))
        assert network.labels_of_edge_index(0) == (2,)
        assert network.labels_of_edge_index(1) == (1, 3)

    def test_lifetimes_near_int64_range(self):
        # m·(a+1) > 2**63: an edge·(a+1)+label key would overflow int64.
        graph = path_graph(4)
        lifetime = 2**62
        draws = np.array([[5, 5], [2**62, 1], [7, 2**62 - 1]])
        fast = TemporalGraph.from_label_matrix(graph, draws, lifetime=lifetime)
        legacy = _legacy(graph, draws, lifetime)
        assert fast.time_arc_edge_index.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        assert np.array_equal(fast.time_arc_labels, legacy.time_arc_labels)
        assert np.array_equal(fast.time_arc_tails, legacy.time_arc_tails)
        assert np.array_equal(fast.time_arc_heads, legacy.time_arc_heads)
        assert fast.labels_of_edge_index(1) == (1, 2**62)
        assert fast == legacy


class TestUniformRandomLabelsUsesFastPath:
    def test_same_network_as_explicit_draw_sequence(self):
        graph = complete_graph(12, directed=True)
        network = uniform_random_labels(graph, labels_per_edge=2, lifetime=12, seed=99)
        rng = np.random.default_rng(99)
        draws = rng.integers(1, 13, size=(graph.m, 2))
        assert network == _legacy(graph, draws, 12)

    def test_lazy_tuples_not_materialised_until_needed(self):
        graph = complete_graph(8, directed=True)
        network = uniform_random_labels(graph, seed=1)
        assert network._edge_labels is None
        network.timearc_csr  # kernels do not materialise the tuple view
        assert network._edge_labels is None
        network.labels_of_edge_index(0)  # API query does
        assert network._edge_labels is not None


class TestArrayLevelCsrBuilder:
    def test_matches_network_level_builder(self):
        graph = complete_graph(10, directed=True)
        network = uniform_random_labels(graph, seed=5)
        direct = build_timearc_csr_from_arrays(
            network.n,
            network.lifetime,
            network.time_arc_tails,
            network.time_arc_heads,
            network.time_arc_labels,
        )
        assert_layout_matches(direct, network.timearc_csr)

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.int64)
        csr = build_timearc_csr_from_arrays(4, 4, empty, empty, empty)
        assert csr.num_arcs == 0 and csr.num_groups == 0


def _wide_network(max_head: int, max_label: int, seed: int) -> TemporalGraph:
    """A directed network whose largest vertex id and label hit the given maxima.

    Vertices and labels come mostly from small pools around the 8-, 16- and
    32-bit boundaries, so many arcs tie on label and head.
    """
    rng = np.random.default_rng(seed)
    n = max_head + 1
    vertex_pool = np.unique(np.clip([0, 1, 2, 254, 255, 256, 65534, 65535, 65536], 0, max_head))
    label_pool = np.unique(np.clip([1, 2, 255, 256, 65535, 65536, 2**32, 2**32 + 1], 1, max_label))
    tails = np.concatenate([rng.choice(vertex_pool, 300), rng.integers(0, n, 100), [0, max_head]])
    heads = np.concatenate([rng.choice(vertex_pool, 300), rng.integers(0, n, 100), [max_head, 0]])
    arcs = {(int(u), int(v)) for u, v in zip(tails, heads) if u != v}
    graph = StaticGraph(n, sorted(arcs), directed=True)
    draws = rng.choice(label_pool, size=(graph.m, 3))
    draws[0, 0], draws[-1, -1] = 1, max_label
    return TemporalGraph.from_label_matrix(graph, draws, lifetime=max_label)


WIDTH_BOUNDARIES = (255, 256, 65_535, 65_536)


class TestSortKeyWidths:
    """The two narrowed stable sorts order arcs exactly as np.lexsort at every key width."""

    @pytest.mark.parametrize("max_label", WIDTH_BOUNDARIES + (2**32 + 1,))
    @pytest.mark.parametrize("max_head", WIDTH_BOUNDARIES)
    def test_forward_and_reverse_layouts_match_lexsort(self, max_head, max_label):
        network = _wide_network(max_head, max_label, seed=max_head ^ max_label)
        tails, heads = network.time_arc_tails, network.time_arc_heads
        labels = network.time_arc_labels
        a = network.lifetime
        assert int(heads.max()) == int(tails.max()) == max_head
        assert int(labels.max()) == max_label and int(labels.min()) == 1
        forward = timearc_csr_reference(network.n, a, tails, heads, labels)
        reverse = timearc_csr_reference(network.n, a, heads, tails, a + 1 - labels)
        assert np.array_equal(forward.arc_order, np.lexsort((heads, labels)))
        assert np.array_equal(reverse.arc_order, np.lexsort((tails, a + 1 - labels)))
        assert_layout_matches(network.timearc_csr, forward)
        assert_layout_matches(network.reverse_timearc_csr, reverse)
