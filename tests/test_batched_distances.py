"""Cross-validation of the batched multi-source engine against the references.

The batched engine (:func:`repro.core.journeys.earliest_arrival_matrix` over
the cached CSR time-arc layout) must agree *exactly* with the scalar
pure-Python reference on every kind of instance: directed and undirected
underlying graphs, graphs with unreachable pairs, multi-label edges, nonzero
start times and source subsets.  A hypothesis property test additionally pins
the batched temporal diameter to the diameter computed by looping the
single-source kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distances import (
    temporal_diameter,
    temporal_distance_matrix,
    temporal_distance_summary,
)
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.labeling import normalized_urtn, uniform_random_labels
from repro.core.temporal_graph import TemporalGraph
from repro.core.reverse_timearc_csr import build_reverse_timearc_csr
from repro.core.timearc_csr import TimeArcCSR, build_timearc_csr
from repro.graphs.generators import complete_graph, erdos_renyi_graph, path_graph
from repro.graphs.static_graph import StaticGraph
from repro.types import UNREACHABLE

from oracles import earliest_arrival_times_reference


def reference_matrix(network: TemporalGraph, *, start_time: int = 0) -> np.ndarray:
    """All-pairs matrix built row by row from the scalar reference kernel."""
    rows = [
        earliest_arrival_times_reference(network, s, start_time=start_time)
        for s in range(network.n)
    ]
    return np.stack(rows, axis=0)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_scalar_reference_on_random_graphs(self, seed, directed):
        # Sparse ER graphs routinely contain unreachable pairs.
        graph = erdos_renyi_graph(17, 0.22, seed=seed, directed=directed)
        network = uniform_random_labels(
            graph, labels_per_edge=2, lifetime=11, seed=seed
        )
        assert np.array_equal(earliest_arrival_matrix(network), reference_matrix(network))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_reference_on_directed_clique(self, seed):
        network = normalized_urtn(complete_graph(24, directed=True), seed=seed)
        assert np.array_equal(earliest_arrival_matrix(network), reference_matrix(network))

    @pytest.mark.parametrize("start_time", [0, 1, 4, 9])
    def test_start_time_agrees_with_reference(self, start_time):
        network = normalized_urtn(complete_graph(16, directed=True), seed=3)
        batched = earliest_arrival_matrix(network, start_time=start_time)
        assert np.array_equal(batched, reference_matrix(network, start_time=start_time))

    def test_unreachable_pairs_are_marked(self, small_path):
        # The small_path fixture cannot route 3 -> 0.
        matrix = earliest_arrival_matrix(small_path)
        assert matrix[3, 0] == UNREACHABLE
        assert matrix[0, 3] < UNREACHABLE

    def test_matches_looped_vectorised_path(self, random_clique_instance):
        network = random_clique_instance
        batched = earliest_arrival_matrix(network)
        looped = np.stack([earliest_arrival_times(network, s) for s in range(network.n)])
        assert np.array_equal(batched, looped)


class TestSourceHandling:
    def test_source_subset_rows(self, random_clique_instance):
        matrix = earliest_arrival_matrix(random_clique_instance, [5, 0, 11])
        assert matrix.shape == (3, random_clique_instance.n)
        for row, source in zip(matrix, (5, 0, 11)):
            assert np.array_equal(row, earliest_arrival_times(random_clique_instance, source))

    def test_repeated_sources_allowed(self, random_clique_instance):
        matrix = earliest_arrival_matrix(random_clique_instance, [4, 4])
        assert np.array_equal(matrix[0], matrix[1])

    def test_empty_sources(self, random_clique_instance):
        matrix = earliest_arrival_matrix(random_clique_instance, [])
        assert matrix.shape == (0, random_clique_instance.n)

    def test_invalid_source_raises(self, random_clique_instance):
        with pytest.raises(ValueError):
            earliest_arrival_matrix(random_clique_instance, [random_clique_instance.n])

    def test_no_labels_network(self):
        network = TemporalGraph(path_graph(3), [[], []])
        matrix = earliest_arrival_matrix(network)
        off_diag = matrix[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == UNREACHABLE)

    def test_result_is_c_contiguous(self, random_clique_instance):
        assert earliest_arrival_matrix(random_clique_instance).flags.c_contiguous


#: The forward layout and the time-reversed one share one structure.
LAYOUTS = pytest.mark.parametrize(
    "layout", ["timearc_csr", "reverse_timearc_csr"], ids=["forward", "reverse"]
)


class TestCSRStructure:
    @LAYOUTS
    def test_cached_and_reused(self, random_clique_instance, layout):
        csr = getattr(random_clique_instance, layout)
        assert isinstance(csr, TimeArcCSR)
        assert getattr(random_clique_instance, layout) is csr

    @pytest.mark.parametrize(
        "build",
        [build_timearc_csr, build_reverse_timearc_csr],
        ids=["forward", "reverse"],
    )
    def test_layout_invariants(self, random_clique_instance, build):
        csr = build(random_clique_instance)
        assert csr.num_arcs == random_clique_instance.num_time_arcs
        # Labels strictly increasing, offsets monotone and covering.
        assert np.all(np.diff(csr.labels) > 0)
        assert csr.arc_offsets[0] == 0 and csr.arc_offsets[-1] == csr.num_arcs
        assert np.all(np.diff(csr.arc_offsets) > 0)
        for group, (label, arc_slice) in enumerate(csr.iter_groups()):
            assert label == csr.labels[group]
            heads = csr.heads[arc_slice]
            # Heads sorted inside each group; head_values are the distinct
            # heads and head_starts point at the start of each head's run.
            assert np.all(np.diff(heads) >= 0)
            hlo, hhi = csr.head_offsets[group], csr.head_offsets[group + 1]
            assert np.array_equal(csr.head_values[hlo:hhi], np.unique(heads))
            starts = csr.head_starts[hlo:hhi]
            assert np.array_equal(heads[starts], csr.head_values[hlo:hhi])

    def test_arc_order_is_permutation_back_to_network(self, random_clique_instance):
        network = random_clique_instance
        csr = network.timearc_csr
        assert np.array_equal(np.sort(csr.arc_order), np.arange(csr.num_arcs))
        assert np.array_equal(network.time_arc_tails[csr.arc_order], csr.tails)
        assert np.array_equal(network.time_arc_heads[csr.arc_order], csr.heads)
        assert np.array_equal(
            network.time_arc_edge_index[csr.arc_order], csr.edge_index
        )

    @LAYOUTS
    def test_arrays_are_read_only(self, random_clique_instance, layout):
        csr = getattr(random_clique_instance, layout)
        with pytest.raises(ValueError):
            csr.tails[0] = 0

    @LAYOUTS
    def test_empty_network_layout(self, layout):
        network = TemporalGraph(StaticGraph(3), [])
        csr = getattr(network, layout)
        assert csr.num_arcs == 0 and csr.num_groups == 0
        assert csr.arc_offsets.tolist() == [0]


@st.composite
def random_temporal_networks(draw):
    """Small random temporal networks, directed or undirected, possibly sparse."""
    n = draw(st.integers(min_value=2, max_value=7))
    directed = draw(st.booleans())
    if directed:
        possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    edges = [edge for edge, keep in zip(possible, flags) if keep]
    graph = StaticGraph(n, edges, directed=directed)
    lifetime = draw(st.integers(min_value=1, max_value=9))
    labels = [
        draw(
            st.lists(
                st.integers(min_value=1, max_value=lifetime),
                min_size=0,
                max_size=3,
            )
        )
        for _ in range(graph.m)
    ]
    return TemporalGraph(graph, labels, lifetime=lifetime)


@given(network=random_temporal_networks())
@settings(max_examples=60, deadline=None)
def test_batched_diameter_equals_looped_diameter(network):
    """Property: the batched diameter matches the loop over per-source sweeps."""
    batched = temporal_diameter(network)
    looped_matrix = np.stack([earliest_arrival_times(network, s) for s in range(network.n)])
    masked = looped_matrix.copy()
    np.fill_diagonal(masked, 0)
    looped = int(masked.max()) if network.n > 1 else 0
    assert batched == looped


@given(network=random_temporal_networks())
@settings(max_examples=40, deadline=None)
def test_batched_matrix_equals_scalar_reference(network):
    """Property: the full batched matrix matches the scalar reference kernel."""
    assert np.array_equal(earliest_arrival_matrix(network), reference_matrix(network))


def test_summary_consistent_with_matrix(random_clique_instance):
    summary = temporal_distance_summary(random_clique_instance)
    matrix = temporal_distance_matrix(random_clique_instance)
    assert summary.diameter == temporal_diameter(random_clique_instance)
    off = ~np.eye(random_clique_instance.n, dtype=bool)
    reachable = off & (matrix < UNREACHABLE)
    assert summary.reachable_fraction == pytest.approx(
        reachable.sum() / off.sum()
    )
    assert summary.average_distance == pytest.approx(float(matrix[reachable].mean()))
