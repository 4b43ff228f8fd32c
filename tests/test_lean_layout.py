"""A layout stores only the columns the sweeps read.

:class:`~repro.core.timearc_csr.TimeArcCSR` keeps the label groups, the
tails, the head runs and one narrow per-arc head column.  The ``int64``
per-arc heads and the arc order back to the network are derived on first
use, and must equal the columns :func:`oracles.timearc_csr_reference`
gathers.  The crosscheck pool's layouts are pinned in
``tests/test_oracle_crosscheck.py``; this module covers multi-label and
stacked networks, label spans around the 8-bit key boundary, the degenerate
networks, the memory the directed K256 layout may take, and that no sweep
reads a derived column.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles import assert_layout_matches, stacked_network, timearc_csr_reference
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.labeling import uniform_random_labels
from repro.core.reachability import is_temporally_connected, preserves_reachability
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import TimeArcCSR, build_timearc_csr_from_arrays
from repro.graphs.generators import complete_graph, path_graph, star_graph
from repro.graphs.static_graph import StaticGraph


def _assert_both_layouts(network: TemporalGraph) -> None:
    a = network.lifetime
    tails, heads, labels = (
        network.time_arc_tails,
        network.time_arc_heads,
        network.time_arc_labels,
    )
    assert_layout_matches(
        network.timearc_csr, timearc_csr_reference(network.n, a, tails, heads, labels)
    )
    assert_layout_matches(
        network.reverse_timearc_csr,
        timearc_csr_reference(network.n, a, heads, tails, a + 1 - labels),
    )


def _stored_bytes(layout: TimeArcCSR) -> int:
    """Bytes of every array the layout stores, whatever its fields are."""
    values = (getattr(layout, field.name) for field in dataclasses.fields(layout))
    return sum(value.nbytes for value in values if isinstance(value, np.ndarray))


MULTI_LABEL = {
    "directed-clique-r3": lambda: uniform_random_labels(
        complete_graph(12, directed=True), labels_per_edge=3, lifetime=40, seed=1
    ),
    "undirected-clique-r4": lambda: uniform_random_labels(
        complete_graph(10), labels_per_edge=4, lifetime=9, seed=2
    ),
    "star-r2": lambda: uniform_random_labels(
        star_graph(30), labels_per_edge=2, lifetime=500, seed=3
    ),
    "path-r5": lambda: uniform_random_labels(
        path_graph(300), labels_per_edge=5, lifetime=70_000, seed=4
    ),
}


class TestMultiLabelAndStacked:
    @pytest.mark.parametrize("name", sorted(MULTI_LABEL))
    def test_multi_label_layouts(self, name):
        _assert_both_layouts(MULTI_LABEL[name]())

    @pytest.mark.parametrize("labels_per_edge", [1, 3])
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_stacked_layouts(self, labels_per_edge, directed):
        graph = complete_graph(9, directed=directed)
        networks = [
            uniform_random_labels(
                graph, labels_per_edge=labels_per_edge, lifetime=9 + t, seed=t
            )
            for t in range(5)
        ]
        stack = stacked_network(networks)
        assert stack.n == 5 * graph.n
        _assert_both_layouts(stack)


class TestLabelSpans:
    """Label keys start at the smallest label: a span of 256 sorts on 8 bits."""

    @pytest.mark.parametrize("span", [1, 255, 256, 257, 65_536, 65_537])
    @pytest.mark.parametrize("low", [1, 1_000, 2**40])
    def test_shifted_keys_give_the_reference_layout(self, span, low):
        graph = complete_graph(20, directed=True)
        rng = np.random.default_rng(span ^ low)
        draws = rng.integers(low, low + span, size=(graph.m, 2))
        draws[0, 0], draws[-1, -1] = low, low + span - 1
        network = TemporalGraph.from_label_matrix(graph, draws)
        assert int(network.time_arc_labels.min()) == low
        assert int(network.time_arc_labels.max()) == low + span - 1
        _assert_both_layouts(network)


class TestDegenerate:
    def test_single_vertex(self):
        network = TemporalGraph(StaticGraph(1, []), [])
        _assert_both_layouts(network)
        assert network.timearc_csr.narrow_heads.dtype == np.uint8

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_no_time_arcs(self, directed):
        graph = complete_graph(4, directed=directed)
        network = TemporalGraph(graph, [[] for _ in range(graph.m)], lifetime=7)
        assert network.num_time_arcs == 0
        _assert_both_layouts(network)
        layout = network.timearc_csr
        assert layout.nbytes == 16 and layout.arc_order.size == 0

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.int64)
        layout = build_timearc_csr_from_arrays(3, 5, empty, empty, empty)
        assert_layout_matches(layout, timearc_csr_reference(3, 5, empty, empty, empty))


class TestFootprint:
    @pytest.fixture(scope="class")
    def k256(self):
        return uniform_random_labels(complete_graph(256, directed=True), seed=11)

    def test_directed_k256_layouts_stay_small(self, k256):
        # 65 280 arcs: an int64 tail and a one-byte head per arc, plus the
        # head runs.  One more int64 per-arc column would add 522 240 bytes.
        for layout in (k256.timearc_csr, k256.reverse_timearc_csr):
            assert layout.narrow_heads.dtype == np.uint8
            assert layout.nbytes == _stored_bytes(layout)
            assert layout.nbytes <= 1_300_000

    def test_wider_vertex_ids_take_the_next_head_type(self):
        network = uniform_random_labels(star_graph(257), seed=5)
        assert network.timearc_csr.narrow_heads.dtype == np.uint16
        _assert_both_layouts(network)


class TestIdentity:
    """Layouts compare and hash by identity, not by their array fields."""

    def test_equal_layouts_built_apart_stay_distinct(self):
        def build():
            network = uniform_random_labels(complete_graph(5, directed=True), seed=1)
            return network.timearc_csr

        first, second = build(), build()
        np.testing.assert_array_equal(first.tails, second.tails)
        assert first == first and not first != first
        assert first != second and not first == second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2


class TestDerivedColumns:
    def test_no_sweep_reads_the_derived_columns(self):
        network = uniform_random_labels(complete_graph(40, directed=True), seed=6)
        earliest_arrival_matrix(network)
        latest_departure_matrix(network)
        earliest_arrival_times(network, 3)
        latest_departure_times(network, 5)
        is_temporally_connected(network)
        preserves_reachability(network)
        for layout in (network.timearc_csr, network.reverse_timearc_csr):
            assert "heads" not in vars(layout) and "arc_order" not in vars(layout)

    def test_derived_once_and_read_only(self):
        layout = uniform_random_labels(complete_graph(30), seed=7).timearc_csr
        assert layout.arc_order is layout.arc_order
        assert layout.heads is layout.heads
        for column in (layout.heads, layout.arc_order):
            assert column.dtype == np.int64 and not column.flags.writeable
        np.testing.assert_array_equal(layout.heads, layout.narrow_heads)

    @pytest.mark.parametrize("n", [40, 300])
    def test_single_source_sweeps_equal_the_matrix_rows(self, n):
        # The width-1 path indexes with the narrow heads (uint8, then uint16).
        network = uniform_random_labels(star_graph(n), labels_per_edge=3, seed=n)
        forward, reverse = earliest_arrival_matrix(network), latest_departure_matrix(network)
        for vertex in (0, 1, n - 1):
            np.testing.assert_array_equal(
                earliest_arrival_times(network, vertex), forward[vertex]
            )
            np.testing.assert_array_equal(
                latest_departure_times(network, vertex), reverse[vertex]
            )
