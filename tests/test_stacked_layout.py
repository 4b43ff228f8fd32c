"""Stack layouts built from label draws, pinned against the union network.

``build_stack_timearc_csr`` lays ``T`` trials' networks out on ``T``
disjoint copies of their graph straight from their ``(m, r)`` label draws.
Its layout must equal ``build_timearc_csr`` of the reference union
(``oracles.stacked_network`` on ``oracles.disjoint_copies``) in every stored
column and dtype: over the crosscheck pool's graphs and digraphs, ``r`` in
1, 2, 5 and three times the lifetime (which forces repeated labels), ``T``
in 1, 2, 7 and a stack that fills the budget, uniform and geometric draws,
and ``n = 0``, ``n = 1`` and ``m = 0``.  A draw out of range raises what
``from_label_matrix`` raises.  The reference is pinned here too: the union's
columns equal ``_from_arcs`` of the offset pairs, and its time arcs are the
networks' own, offset by copy.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from oracles import disjoint_copies, stacked_network
from repro.core import reachability
from repro.core.journeys import _sweep
from repro.core.labeling import uniform_label_draws, uniform_random_labels
from repro.core.reachability import preserves_reachability_stacked, stack_height
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import build_stack_timearc_csr, build_timearc_csr
from repro.exceptions import GraphError, LabelingError, LifetimeError
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graphs.static_graph import StaticGraph
from repro.randomness.distributions import GeometricLabelDistribution
from repro.utils.seeding import spawn_rngs

#: The crosscheck pool's graphs and digraphs, and the degenerate shapes.
GRAPHS = {
    "directed-clique": lambda: complete_graph(6, directed=True),
    "undirected-clique": lambda: complete_graph(5),
    "er-directed": lambda: erdos_renyi_graph(8, 0.4, directed=True, seed=3),
    "star": lambda: star_graph(7),
    "path": lambda: path_graph(6),
    "disconnected": lambda: StaticGraph(7, [(0, 1), (1, 2), (4, 5)]),
    "no-edges": lambda: StaticGraph(4),
    "one-vertex": lambda: StaticGraph(1),
    "no-vertices": lambda: StaticGraph(0, directed=True),
}

#: Every column a layout stores, and the ``int64`` heads derived from them.
COLUMNS = (
    "labels",
    "arc_offsets",
    "tails",
    "narrow_heads",
    "heads",
    "head_values",
    "head_offsets",
    "head_starts",
)

LIFETIME = 6


def _networks(graph, draws, lifetime):
    return [TemporalGraph.from_label_matrix(graph, d, lifetime=lifetime) for d in draws]


def _assert_equals_the_union_layout(graph, draws, lifetime):
    layout = build_stack_timearc_csr(graph, draws, lifetime)
    expected = build_timearc_csr(stacked_network(_networks(graph, draws, lifetime)))
    assert (layout.n, layout.lifetime) == (expected.n, expected.lifetime)
    for column in COLUMNS:
        mine, theirs = getattr(layout, column), getattr(expected, column)
        assert mine.dtype == theirs.dtype, column
        assert not mine.flags.writeable, column
        np.testing.assert_array_equal(mine, theirs, err_msg=column)
    return layout


def _draws(graph, trials, r, lifetime, distribution, seed):
    """``trials`` draw matrices of shape ``(m, r)``, from one generator."""
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        matrix = rng.integers(1, lifetime + 1, size=(trials, graph.m, r))
    else:
        matrix = GeometricLabelDistribution(lifetime, q=0.2).sample(
            (trials, graph.m, r), seed=rng
        )
    return list(matrix)


class TestStackLayout:
    @pytest.mark.parametrize("distribution", ["uniform", "geometric"])
    @pytest.mark.parametrize("trials", [1, 2, 7, "full"])
    @pytest.mark.parametrize("r", [1, 2, 5, 3 * LIFETIME])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_equals_the_union_layout(self, name, r, trials, distribution, monkeypatch):
        graph = GRAPHS[name]()
        if trials == "full":
            # A stack at a smaller budget keeps the reference union small:
            # the edgeless graphs stack a trial per row of the bitset.
            monkeypatch.setattr(reachability, "STACK_ARCS", 1 << 12)
            trials = stack_height(graph, r, LIFETIME)
        draws = _draws(graph, trials, r, LIFETIME, distribution, seed=len(name) * r)
        _assert_equals_the_union_layout(graph, draws, LIFETIME)

    @pytest.mark.parametrize("directed", [False, True])
    def test_many_vertices_and_wide_labels(self, directed):
        # Stacked vertex ids past 255 and labels past 256 need 16-bit keys.
        graph = star_graph(64) if not directed else complete_graph(40, directed=True)
        draws = [
            uniform_label_draws(graph, labels_per_edge=3, lifetime=700, seed=rng)
            for rng in spawn_rngs(5, 9)
        ]
        layout = _assert_equals_the_union_layout(graph, draws, 700)
        assert layout.narrow_heads.dtype == np.uint16

    def test_one_trial_is_the_network_layout(self):
        graph = erdos_renyi_graph(10, 0.3, seed=4)
        [draws] = _draws(graph, 1, 3, LIFETIME, "uniform", seed=2)
        layout = build_stack_timearc_csr(graph, [draws], LIFETIME)
        network = TemporalGraph.from_label_matrix(graph, draws, lifetime=LIFETIME)
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(layout, column), getattr(network.timearc_csr, column)
            )

    def test_a_stack_layout_has_no_arc_order(self):
        graph = path_graph(5)
        layout = build_stack_timearc_csr(graph, _draws(graph, 2, 1, 5, "uniform", 0), 5)
        with pytest.raises(ValueError, match="label draws"):
            layout.arc_order

    @pytest.mark.parametrize(
        "outputs",
        [{}, {"arrivals": True}, {"arrivals": False, "settles": True}],
    )
    def test_a_stacked_sweep_is_reach_only(self, outputs):
        graph = path_graph(4)
        layout = build_stack_timearc_csr(graph, _draws(graph, 2, 1, 4, "uniform", 0), 4)
        with pytest.raises(ValueError, match="reach-only"):
            _sweep(layout, None, 0, reverse=False, copies=2, **outputs)
        required = graph.packed_reachability_closure
        with pytest.raises(ValueError, match="reach-only"):
            _sweep(
                layout, None, 0, reverse=False, arrivals=False, required=required, copies=2
            )

    def test_a_layout_is_swept_forward(self):
        graph = path_graph(4)
        layout = build_stack_timearc_csr(graph, _draws(graph, 2, 1, 4, "uniform", 0), 4)
        with pytest.raises(ValueError, match="forward"):
            _sweep(layout, None, 0, reverse=True, arrivals=False, copies=2)


class TestOutOfRangeDraws:
    """A bad draw raises what the first trial holding one raises per trial."""

    @pytest.mark.parametrize(
        "first, second, error",
        [
            (None, 0, LabelingError),
            (None, -3, LabelingError),
            (None, LIFETIME + 1, LifetimeError),
            (LIFETIME + 1, 0, LifetimeError),
            (0, LIFETIME + 1, LabelingError),
        ],
    )
    def test_same_error_as_from_label_matrix(self, first, second, error):
        graph = erdos_renyi_graph(8, 0.4, directed=True, seed=1)
        draws = _draws(graph, 3, 2, LIFETIME, "uniform", seed=9)
        for trial, bad in ((0, first), (1, second)):
            if bad is not None:
                draws[trial][trial + 2, 1] = bad
        with pytest.raises(error) as per_trial:
            _networks(graph, draws, LIFETIME)
        with pytest.raises(error) as stacked:
            build_stack_timearc_csr(graph, draws, LIFETIME)
        assert str(stacked.value) == str(per_trial.value)
        with pytest.raises(error, match=re.escape(str(per_trial.value))):
            preserves_reachability_stacked(graph, draws, LIFETIME)

    def test_draws_must_fit_the_graph(self):
        graph = path_graph(5)
        with pytest.raises(LabelingError, match="m = 4"):
            build_stack_timearc_csr(graph, _draws(path_graph(6), 2, 1, 5, "uniform", 0), 5)

    def test_the_empty_graph_still_answers(self):
        # Nothing to preserve: a graph with no vertices weighs no arcs, no
        # draws and no rows.
        assert stack_height(StaticGraph(0), 1, 3) == reachability.STACK_ARCS
        from repro.core.guarantees import reachability_probability

        assert reachability_probability(StaticGraph(0), 1, lifetime=3) == 1.0


class TestReferenceUnion:
    """``oracles.stacked_network`` and ``oracles.disjoint_copies`` themselves."""

    def test_blocks_are_the_networks(self):
        graph = erdos_renyi_graph(9, 0.4, directed=True, seed=2)
        networks = [
            uniform_random_labels(graph, labels_per_edge=2, lifetime=9, seed=rng)
            for rng in spawn_rngs(4, 3)
        ]
        stack = stacked_network(networks)
        assert stack.graph == disjoint_copies(graph, 3)
        assert stack.total_labels == sum(network.total_labels for network in networks)
        tails, heads = stack.time_arc_tails, stack.time_arc_heads
        start = 0
        for t, network in enumerate(networks):
            stop = start + network.num_time_arcs
            assert np.array_equal(tails[start:stop], network.time_arc_tails + t * graph.n)
            assert np.array_equal(heads[start:stop], network.time_arc_heads + t * graph.n)
            assert np.array_equal(
                stack.time_arc_labels[start:stop], network.time_arc_labels
            )
            start = stop

    def test_one_label_stacks_share_the_unions_arcs(self):
        graph = star_graph(10)
        stack = stacked_network(
            [uniform_random_labels(graph, lifetime=10, seed=rng) for rng in spawn_rngs(0, 4)]
        )
        arcs = stack.graph.edge_arcs
        assert np.shares_memory(stack.time_arc_tails, arcs.tails)
        assert np.shares_memory(stack.time_arc_heads, arcs.heads)

    def test_networks_must_share_one_graph_object(self):
        first = uniform_random_labels(path_graph(4), seed=0)
        second = uniform_random_labels(path_graph(4), seed=1)
        with pytest.raises(GraphError):
            stacked_network([first, second])

    def test_derived_per_call(self):
        graph = path_graph(5)
        assert disjoint_copies(graph, 1) is graph
        union = disjoint_copies(graph, 3)
        again = disjoint_copies(graph, 3)
        assert union is not again and union == again
        assert (union.n, union.m, union.directed) == (15, 12, False)
        pairs = union.edge_pairs.reshape(3, graph.m, 2)
        for t in range(3):
            np.testing.assert_array_equal(pairs[t], graph.edge_pairs + t * graph.n)

    @pytest.mark.parametrize("copies", [2, 3, 8])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_the_union_equals_the_sorted_offset_pairs(self, name, copies):
        # Derived by offsets, every column equals the one _from_arcs builds
        # (with its lexsort) from the offset pairs, the edge arcs and their
        # head and tail orders included.
        graph = GRAPHS[name]()
        union = disjoint_copies(graph, copies)
        offsets = np.arange(copies)[:, np.newaxis] * graph.n
        built = StaticGraph._from_arcs(
            copies * graph.n,
            (graph.pair_tails + offsets).ravel(),
            (graph.pair_heads + offsets).ravel(),
            directed=graph.directed,
            name=graph.name,
        )
        assert (union.n, union.directed, union.name) == (
            built.n, built.directed, built.name
        )
        for column in ("pair_tails", "pair_heads", "arc_tails", "arc_heads"):
            mine, theirs = getattr(union, column), getattr(built, column)
            assert mine.dtype == theirs.dtype, column
            np.testing.assert_array_equal(mine, theirs, err_msg=column)
        derived, sorted_arcs = union.edge_arcs, built.edge_arcs
        for column in (
            "edge_index", "tails", "heads", "arc_edge_index", "head_order", "tail_order"
        ):
            mine, theirs = getattr(derived, column), getattr(sorted_arcs, column)
            assert mine.dtype == theirs.dtype, column
            assert not mine.flags.writeable, column
            np.testing.assert_array_equal(mine, theirs, err_msg=column)
