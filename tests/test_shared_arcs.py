"""The one-label stored form: a network with one label per edge stores its labels alone.

Its edge column and its time-arc tails, heads and edge index depend on the
graph alone, so it takes them from ``StaticGraph.edge_arcs``, which every
such network over one graph object shares; the layout builds start from the
head and tail orders the graph keeps there.  Three constructions reach this
form: a one-column ``from_label_matrix``, the mapping constructor with one
label per edge, and a matrix whose rows each hold one distinct label.  They
must agree with each other and with the per-edge references of
``tests/oracles.py`` in every array a kernel or a digest reads.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import build_timearc_csr_reference, time_arcs_reference
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import TimeArcCSR
from repro.graphs.generators import complete_graph, grid_graph, star_graph
from repro.graphs.static_graph import StaticGraph
from repro.utils.fingerprint import graph_fingerprint

GRAPHS = {
    "directed-clique": lambda: complete_graph(7, directed=True),
    "undirected-clique": lambda: complete_graph(7),
    "grid": lambda: grid_graph(3, 4),
    "star": lambda: star_graph(6),
    "directed-path": lambda: StaticGraph(
        5, [(0, 1), (3, 2), (4, 3), (1, 2)], directed=True
    ),
    "no-edges-directed": lambda: StaticGraph(4, [], directed=True),
    "no-edges-undirected": lambda: StaticGraph(3, []),
    "no-vertices": lambda: StaticGraph(0, [], directed=True),
}

LAYOUT_FIELDS = tuple(field.name for field in dataclasses.fields(TimeArcCSR))


def _one_label_each(graph: StaticGraph, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(1, max(graph.n, 2) + 1, size=graph.m)


def _constructions(graph: StaticGraph, labels: np.ndarray) -> dict[str, TemporalGraph]:
    lifetime = max(graph.n, 2)
    return {
        "one-column matrix": TemporalGraph.from_label_matrix(
            graph, labels[:, np.newaxis], lifetime=lifetime
        ),
        "one-dimensional matrix": TemporalGraph.from_label_matrix(
            graph, labels, lifetime=lifetime
        ),
        "mapping": TemporalGraph(
            graph, dict(enumerate([label] for label in labels.tolist())), lifetime=lifetime
        ),
        "equal columns": TemporalGraph.from_label_matrix(
            graph, np.stack([labels, labels], axis=1), lifetime=lifetime
        ),
    }


def _time_arc_columns(network: TemporalGraph) -> tuple[np.ndarray, ...]:
    return (
        network.time_arc_tails,
        network.time_arc_heads,
        network.time_arc_labels,
        network.time_arc_edge_index,
    )


def _assert_same_layout(actual: TimeArcCSR, expected: TimeArcCSR) -> None:
    for name in LAYOUT_FIELDS:
        got, want = getattr(actual, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == np.int64, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


def _assert_same_network(actual: TemporalGraph, expected: TemporalGraph) -> None:
    assert actual == expected and hash(actual) == hash(expected)
    for got, want in zip(_time_arc_columns(actual), _time_arc_columns(expected)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    counts = actual.label_count_per_edge()
    assert np.array_equal(counts, expected.label_count_per_edge())
    assert graph_fingerprint(actual) == graph_fingerprint(expected)
    _assert_same_layout(actual.timearc_csr, expected.timearc_csr)
    _assert_same_layout(actual.reverse_timearc_csr, expected.reverse_timearc_csr)


def _shared_columns(network: TemporalGraph) -> list[np.ndarray]:
    return [network.time_arc_tails, network.time_arc_heads, network.time_arc_edge_index]


def _graph_columns(graph: StaticGraph) -> list[np.ndarray]:
    arcs = graph.edge_arcs
    return [arcs.tails, arcs.heads, arcs.arc_edge_index, arcs.edge_index]


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestBitIdentity:
    """Every construction of one label per edge gives the same network."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_constructions_agree(self, name, seed):
        graph = GRAPHS[name]()
        built = _constructions(graph, _one_label_each(graph, seed))
        reference = built.pop("one-column matrix")
        for construction, network in built.items():
            assert network.total_labels == graph.m, construction
            _assert_same_network(network, reference)

    def test_matches_the_per_edge_references(self, name):
        graph = GRAPHS[name]()
        labels = _one_label_each(graph, 2)
        lifetime = max(graph.n, 2)
        network = TemporalGraph.from_label_matrix(graph, labels, lifetime=lifetime)
        expected = time_arcs_reference(graph, [[label] for label in labels.tolist()])
        for got, want in zip(_time_arc_columns(network), expected):
            assert np.array_equal(got, want)
        ones = np.ones(graph.m, np.int64)
        assert np.array_equal(network.label_count_per_edge(), ones)
        if graph.m:
            _assert_same_layout(
                network.timearc_csr,
                build_timearc_csr_reference(network.n, network.lifetime, *expected),
            )

    def test_derived_networks_take_the_form_too(self, name):
        # Reversal, a new lifetime and a label cut that keeps every label
        # leave one label per edge; each must equal the network built from
        # per-edge label lists, and share its graph's columns.
        graph = GRAPHS[name]()
        labels = _one_label_each(graph, 3).tolist()
        lifetime = max(graph.n, 2)
        network = TemporalGraph.from_label_matrix(graph, labels, lifetime=lifetime)
        reversed_graph = graph.reverse()
        mirrored = {
            reversed_graph.edge_index(v, u): [lifetime + 1 - label]
            for (u, v), label in zip(graph.edges(), labels)
        }
        per_edge = [[label] for label in labels]
        for derived, expected in (
            (
                network.time_reversed(),
                TemporalGraph(reversed_graph, mirrored, lifetime=lifetime),
            ),
            (
                network.with_lifetime(lifetime + 3),
                TemporalGraph(graph, per_edge, lifetime=lifetime + 3),
            ),
            (
                network.restricted_to_max_label(lifetime),
                TemporalGraph(graph, per_edge, lifetime=lifetime),
            ),
        ):
            _assert_same_network(derived, expected)
            columns = zip(_shared_columns(derived), _graph_columns(derived.graph))
            for column, graph_column in columns:
                assert not graph.m or np.shares_memory(column, graph_column)


class TestSharing:
    def test_one_label_networks_share_the_graphs_columns(self):
        for name, build in GRAPHS.items():
            graph = build()
            first, second = (
                TemporalGraph.from_label_matrix(graph, _one_label_each(graph, seed))
                for seed in (0, 1)
            )
            cached = _graph_columns(graph)
            for column in cached:
                assert not column.flags.writeable, name
            for network in (first, second):
                for column, graph_column in zip(_shared_columns(network), cached):
                    assert not column.flags.writeable, name
                    if graph.m:
                        assert np.shares_memory(column, graph_column), name
            if graph.m:
                assert not np.shares_memory(first.time_arc_labels, second.time_arc_labels)

    def test_a_digraph_lends_its_own_edge_columns(self):
        graph = complete_graph(5, directed=True)
        network = TemporalGraph.from_label_matrix(graph, _one_label_each(graph, 0))
        assert np.shares_memory(network.time_arc_tails, graph.pair_tails)
        assert np.shares_memory(network.time_arc_heads, graph.pair_heads)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("bare, doubled", [(True, False), (False, True), (True, True)])
    def test_other_label_counts_share_nothing(self, directed, bare, doubled):
        # With one edge bare and one doubled the label count still equals m.
        graph = complete_graph(5, directed=directed)
        labels = [[1 + i % 5] for i in range(graph.m)]
        if bare:
            labels[0] = []
        if doubled:
            labels[-1] = [1, 2]
        networks = [TemporalGraph(graph, labels, lifetime=5)]
        if not bare:
            matrix = np.array([row * 2 if len(row) == 1 else row for row in labels])
            networks.append(TemporalGraph.from_label_matrix(graph, matrix, lifetime=5))
            assert networks[1] == networks[0]
        graph_columns = _graph_columns(graph) + [graph.pair_tails, graph.pair_heads]
        for network in networks:
            assert network.total_labels == graph.m - bare + doubled
            for column in _shared_columns(network):
                for graph_column in graph_columns:
                    assert not np.shares_memory(column, graph_column)

    def test_orders_fill_per_direction_on_first_use(self):
        graph = complete_graph(9, directed=True)
        arcs = graph.edge_arcs
        network = TemporalGraph.from_label_matrix(graph, _one_label_each(graph, 0))
        assert arcs._head_order is None and arcs._tail_order is None
        network.timearc_csr
        assert arcs._head_order is not None and arcs._tail_order is None
        network.reverse_timearc_csr
        assert arcs._tail_order is not None
        for order, column in ((arcs.head_order, arcs.heads), (arcs.tail_order, arcs.tails)):
            assert not order.flags.writeable
            assert np.array_equal(order, np.argsort(column, kind="stable"))
        # A second network's builds reuse the orders the first one filled.
        head_order, tail_order = arcs.head_order, arcs.tail_order
        other = TemporalGraph.from_label_matrix(graph, _one_label_each(graph, 1))
        other.timearc_csr, other.reverse_timearc_csr
        assert arcs.head_order is head_order and arcs.tail_order is tail_order

    def test_graph_cache_is_built_once(self):
        graph = grid_graph(4, 4)
        assert graph.edge_arcs is graph.edge_arcs


class TestNoAliasing:
    @pytest.mark.parametrize("shape", ["column", "flat"])
    def test_mutating_the_callers_matrix_leaves_the_network(self, shape):
        graph = complete_graph(6, directed=True)
        labels = _one_label_each(graph, 4)
        matrix = labels[:, np.newaxis].copy() if shape == "column" else labels.copy()
        network = TemporalGraph.from_label_matrix(graph, matrix, lifetime=6)
        expected = TemporalGraph.from_label_matrix(graph, labels.copy(), lifetime=6)
        matrix[...] = 1
        _assert_same_network(network, expected)
        assert np.array_equal(network.time_arc_labels, labels)


class TestPickling:
    @pytest.mark.parametrize("name", ["directed-clique", "undirected-clique", "no-edges-directed"])
    @pytest.mark.parametrize("built", [False, True])
    def test_round_trip(self, name, built):
        graph = GRAPHS[name]()
        network = TemporalGraph.from_label_matrix(graph, _one_label_each(graph, 5))
        if built:
            network.timearc_csr, network.reverse_timearc_csr
        clone = pickle.loads(pickle.dumps(network))
        _assert_same_network(clone, network)
        for column, graph_column in zip(_shared_columns(clone), _graph_columns(clone.graph)):
            assert np.array_equal(column, graph_column)
            if graph.m:
                assert np.shares_memory(column, graph_column)


class TestThreads:
    def test_racing_threads_fill_equal_caches(self):
        # The graph's columns and orders are filled without a lock: a thread
        # that loses a race computes equal arrays, and none may see a
        # half-built cache.
        graphs = [complete_graph(24, directed=directed) for directed in (True, False) * 8]
        label_sets = {id(graph): _one_label_each(graph, 6) for graph in graphs}

        def build(graph):
            network = TemporalGraph.from_label_matrix(graph, label_sets[id(graph)])
            return network, network.timearc_csr, network.reverse_timearc_csr

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                racing = [graph for graph in graphs for _ in range(4)]
                results = list(pool.map(build, racing, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(racing)
        for graph, (network, forward, reverse) in zip(racing, results):
            expected = TemporalGraph(
                StaticGraph(graph.n, graph.edges(), directed=graph.directed),
                [[label] for label in label_sets[id(graph)].tolist()],
            )
            _assert_same_network(network, expected)
            _assert_same_layout(forward, expected.timearc_csr)
            _assert_same_layout(reverse, expected.reverse_timearc_csr)
        for graph in graphs:
            arcs = graph.edge_arcs
            assert arcs is graph.edge_arcs
            assert np.array_equal(arcs.head_order, np.argsort(arcs.heads, kind="stable"))
            assert np.array_equal(arcs.tail_order, np.argsort(arcs.tails, kind="stable"))
