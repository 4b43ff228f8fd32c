"""The stored form of ``L``: edge-major ``(edge, label)`` arrays, one path for all.

Both constructors and every derived network fill the same arrays through one
initializer, so neither constructor is an independent reference for the
other.  :func:`oracles.time_arcs_reference` is: it lists the time arcs of
per-edge label sets with the per-edge loop of Definition 1.  The reverse
layout, which sorts narrow mirrored label keys, is pinned against the
``np.lexsort`` order and the ``int64`` reference layout of the mirrored arcs
at the lifetimes where the key column's width changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import assert_layout_matches, time_arcs_reference, timearc_csr_reference
from repro import UNREACHABLE
from repro.core.reverse_timearc_csr import build_reverse_timearc_csr
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import build_timearc_csr_from_arrays
from repro.exceptions import LabelingError, LifetimeError
from repro.graphs.generators import complete_graph, path_graph, star_graph
from repro.graphs.static_graph import StaticGraph

GRAPHS = {
    "directed-clique": complete_graph(6, directed=True),
    "undirected-clique": complete_graph(6, directed=False),
    "directed-star": StaticGraph(
        5, [(0, 1), (2, 0), (0, 3), (4, 0), (1, 2)], directed=True
    ),
    "undirected-path": path_graph(7),
    "star": star_graph(6),
    "no-edges-directed": StaticGraph(4, [], directed=True),
    "no-edges-undirected": StaticGraph(3, []),
}


def _random_labels(graph: StaticGraph, seed: int, *, unlabelled: bool) -> list[list[int]]:
    """Per-edge label lists with duplicates; some edges left bare if asked."""
    rng = np.random.default_rng(seed)
    lifetime = max(graph.n, 2)
    labels = []
    for _ in range(graph.m):
        count = int(rng.integers(0 if unlabelled else 1, 4))
        labels.append(rng.integers(1, lifetime + 1, size=count).tolist())
    if unlabelled and graph.m >= 2:
        labels[0], labels[-1] = [], labels[-1] or [1]
    return labels


def _assert_arcs(network: TemporalGraph, per_edge_labels) -> None:
    tails, heads, labels, edges = time_arcs_reference(network.graph, per_edge_labels)
    for actual, expected in (
        (network.time_arc_tails, tails),
        (network.time_arc_heads, heads),
        (network.time_arc_labels, labels),
        (network.time_arc_edge_index, edges),
    ):
        assert actual.dtype == np.int64
        assert np.array_equal(actual, expected)
    assert network.num_time_arcs == labels.size
    assert network.total_labels == sum(len(set(row)) for row in per_edge_labels)


def _tuples_built(network: TemporalGraph) -> bool:
    return network._edge_labels is not None


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestOnePathAgainstPerEdgeReference:
    def test_sequence_constructor(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 1, unlabelled=True)
        _assert_arcs(TemporalGraph(graph, per_edge, lifetime=graph.n + 1), per_edge)

    def test_mapping_constructor_in_any_key_order(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 2, unlabelled=True)
        mapping = {i: tuple(per_edge[i]) for i in reversed(range(graph.m)) if per_edge[i]}
        network = TemporalGraph(graph, mapping, lifetime=graph.n + 1)
        _assert_arcs(network, per_edge)
        assert network == TemporalGraph(graph, per_edge, lifetime=graph.n + 1)

    def test_label_matrix_constructor(self, name):
        graph = GRAPHS[name]
        rng = np.random.default_rng(3)
        matrix = rng.integers(1, graph.n + 2, size=(graph.m, 3))
        network = TemporalGraph.from_label_matrix(graph, matrix, lifetime=graph.n + 1)
        _assert_arcs(network, matrix.tolist())

    def test_restricted_to_max_label(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 4, unlabelled=True)
        network = TemporalGraph(graph, per_edge, lifetime=graph.n + 1)
        for cutoff in (1, graph.n // 2 + 1, graph.n + 1):
            restricted = network.restricted_to_max_label(cutoff)
            _assert_arcs(restricted, [[l for l in row if l <= cutoff] for row in per_edge])
            assert restricted.lifetime == network.lifetime

    def test_with_lifetime(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 5, unlabelled=True)
        network = TemporalGraph(graph, per_edge, lifetime=graph.n + 1)
        longer = network.with_lifetime(graph.n + 9)
        _assert_arcs(longer, per_edge)
        assert longer.lifetime == graph.n + 9
        assert longer != network
        assert longer.with_lifetime(graph.n + 1) == network

    def test_time_reversed(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 6, unlabelled=True)
        a = graph.n + 1
        network = TemporalGraph(graph, per_edge, lifetime=a)
        reversed_network = network.time_reversed()
        reversed_graph = graph.reverse()
        assert reversed_network.graph == reversed_graph
        mirrored = []
        for u, v in reversed_graph.edge_pairs.tolist():
            original = graph.edge_index(v, u) if graph.directed else graph.edge_index(u, v)
            mirrored.append([a + 1 - label for label in per_edge[original]])
        _assert_arcs(reversed_network, mirrored)
        assert reversed_network.lifetime == a
        assert reversed_network.time_reversed() == network

    def test_label_queries_read_the_arrays(self, name):
        graph = GRAPHS[name]
        per_edge = _random_labels(graph, 7, unlabelled=True)
        network = TemporalGraph(graph, per_edge, lifetime=graph.n + 1)
        expected = [tuple(sorted(set(row))) for row in per_edge]
        assert [network.labels_of_edge_index(i) for i in range(graph.m)] == expected
        assert network.label_count_per_edge().tolist() == [len(row) for row in expected]
        assert network.label_count_per_edge().dtype == np.int64
        pairs = graph.edge_pairs.tolist()
        labelled = [tuple(pair) for pair, row in zip(pairs, expected) if row]
        assert list(network.underlying_edges_with_labels().edges()) == labelled


class TestTupleViewStaysUnbuilt:
    """Derived networks, ``==`` and ``hash`` work on the arrays alone."""

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("path", ["mapping", "matrix"])
    def test_derived_networks_equality_and_hash(self, directed, path):
        graph = complete_graph(7, directed=directed)
        rng = np.random.default_rng(11)
        matrix = rng.integers(1, 8, size=(graph.m, 2))
        if path == "matrix":
            network = TemporalGraph.from_label_matrix(graph, matrix, lifetime=7)
            twin = TemporalGraph.from_label_matrix(graph, matrix, lifetime=7)
        else:
            network = TemporalGraph(graph, matrix.tolist(), lifetime=7)
            twin = TemporalGraph(graph, dict(enumerate(matrix.tolist())), lifetime=7)
        derived = [
            network.restricted_to_max_label(4),
            network.with_lifetime(9),
            network.time_reversed(),
            network.time_reversed().time_reversed(),
        ]
        assert network == twin and hash(network) == hash(twin)
        assert derived[-1] == network and hash(derived[-1]) == hash(network)
        assert network != derived[0] and network != derived[1]
        network.underlying_edges_with_labels()
        repr(network)
        network.label_count_per_edge()
        network.timearc_csr
        network.reverse_timearc_csr
        for each in [network, twin, *derived]:
            assert not _tuples_built(each)
        network.labels_of_edge_index(0)
        assert _tuples_built(network)

    def test_hash_separates_lifetime_and_labels(self):
        graph = path_graph(4)
        base = TemporalGraph(graph, [[1], [2], [3]], lifetime=5)
        mapped = TemporalGraph(graph, {2: [3], 0: [1], 1: [2, 2]}, lifetime=5)
        assert base == mapped and hash(base) == hash(mapped)
        assert base != TemporalGraph(graph, [[1], [2], [3]], lifetime=6)
        assert base != TemporalGraph(graph, [[1], [2, 3], []], lifetime=5)
        assert base != TemporalGraph(path_graph(4).to_directed(), [[1]] * 6, lifetime=5)


class TestCallerInputChecks:
    """The checks on caller input survive the move to one array path."""

    def test_edge_index_out_of_range(self):
        for bad in (-1, 3):
            with pytest.raises(LabelingError, match="out of range"):
                TemporalGraph(path_graph(4), {bad: [1]})

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_labels_name_their_edge(self, bad):
        with pytest.raises(LabelingError, match=f"got {bad} on edge 1"):
            TemporalGraph(path_graph(4), [[2], [5, bad], [1]])
        with pytest.raises(LabelingError, match=f"got {bad} on edge 2"):
            TemporalGraph.from_label_matrix(path_graph(4), [[2, 1], [5, 3], [bad, 1]])

    def test_sequence_length(self):
        with pytest.raises(LabelingError, match="3 edges"):
            TemporalGraph(path_graph(4), [[1], [2]])

    @pytest.mark.parametrize("shape", [(2, 1), (3, 2, 1), (4,)])
    def test_matrix_shape(self, shape):
        with pytest.raises(LabelingError, match="one row per edge"):
            TemporalGraph.from_label_matrix(path_graph(4), np.ones(shape, dtype=np.int64))

    def test_lifetime_checks_apply_to_every_path(self):
        graph = path_graph(3)
        network = TemporalGraph(graph, [[2], [6]])
        assert network.lifetime == 6
        with pytest.raises(LifetimeError):
            network.with_lifetime(5)
        with pytest.raises(ValueError):
            network.with_lifetime(0)
        with pytest.raises(ValueError):
            network.restricted_to_max_label(0)

    def test_empty_inputs_default_the_lifetime_to_n(self):
        graph = StaticGraph(5, [])
        for network in (
            TemporalGraph(graph, []),
            TemporalGraph(graph, {}),
            TemporalGraph.from_label_matrix(graph, np.empty((0, 3), dtype=np.int64)),
        ):
            assert network.lifetime == 5 and network.total_labels == 0
            assert network.label_count_per_edge().tolist() == []
            assert list(network.edge_label_items()) == []


#: Lifetimes at which the narrowest unsigned type holding ``a`` changes, plus
#: the largest lifetime a sweep accepts.
REVERSE_LIFETIMES = (255, 256, 65_535, 65_536, 2**32, UNREACHABLE - 1)


def _boundary_network(lifetime: int, *, with_label_one: bool) -> TemporalGraph:
    graph = complete_graph(9, directed=True)
    boundaries = [1, 2, 3, 254, 255, 256, 257, 65_535, 65_536, 2**32]
    pool = np.unique(np.clip(boundaries, 1, lifetime))
    pool = np.union1d(pool, [lifetime - 1, lifetime])
    if not with_label_one:
        pool = pool[pool > 1]
    rng = np.random.default_rng(lifetime % 997)
    draws = rng.choice(pool, size=(graph.m, 3))
    draws[-1, -1] = lifetime
    if with_label_one:
        draws[0, 0] = 1
    return TemporalGraph.from_label_matrix(graph, draws, lifetime=lifetime)


class TestReverseLayoutKeyWidths:
    @pytest.mark.parametrize("with_label_one", [True, False], ids=["label-1", "no-label-1"])
    @pytest.mark.parametrize("lifetime", REVERSE_LIFETIMES)
    def test_reverse_layout_matches_lexsort_of_mirrored_arcs(self, lifetime, with_label_one):
        network = _boundary_network(lifetime, with_label_one=with_label_one)
        a = network.lifetime
        mirrored = a + 1 - network.time_arc_labels
        expected = timearc_csr_reference(
            network.n, a, network.time_arc_heads, network.time_arc_tails, mirrored
        )
        lexsorted = np.lexsort((network.time_arc_tails, mirrored))
        assert np.array_equal(expected.arc_order, lexsorted)
        for layout in (network.reverse_timearc_csr, build_reverse_timearc_csr(network)):
            assert_layout_matches(layout, expected)
        assert int(network.reverse_timearc_csr.labels[-1]) == a + 1 - int(
            network.time_arc_labels.min()
        )

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_narrow_label_columns_give_the_int64_layout(self, dtype):
        network = _boundary_network(255, with_label_one=True)
        args = (network.n, network.lifetime, network.time_arc_tails, network.time_arc_heads)
        wide = build_timearc_csr_from_arrays(*args, network.time_arc_labels)
        narrow = build_timearc_csr_from_arrays(*args, network.time_arc_labels.astype(dtype))
        assert_layout_matches(narrow, wide)

    def test_empty_reverse_layout(self):
        network = TemporalGraph(path_graph(3), [[], []], lifetime=300)
        layout = network.reverse_timearc_csr
        assert layout.num_arcs == 0 and layout.num_groups == 0
        assert layout.arc_offsets.tolist() == [0]
