"""Stacked reachability decisions: many trials, one sweep per stack.

``preserves_reachability_stacked`` lays up to ``STACK_HEIGHT`` networks
over one graph out as one network on disjoint copies of the graph and
decides them with one reach-only sweep.  Every answer must equal the
per-network ``preserves_reachability``, and the brute-force journeys of
``tests/oracles.py`` against the BFS closure, on the shapes that could
break the block layout: disconnected graphs (whose closure is not all
ones), ``n <= 1``, no edges, edges without labels, duplicate draws and
stacks one short of, equal to and one past the stack height.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from oracles import all_pairs_shortest_paths_reference, oracle_arrival_matrix
from repro import telemetry
from repro.core.guarantees import reachability_probability
from repro.core.journeys import _sweep
from repro.core.labeling import uniform_random_labels
from repro.core.reachability import (
    STACK_HEIGHT,
    preserves_reachability,
    preserves_reachability_stacked,
)
from repro.core.temporal_graph import TemporalGraph
from repro.engine.sharding import plan_shards
from repro.exceptions import CheckpointError, GraphError
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graphs.static_graph import StaticGraph
from repro.randomness.distributions import GeometricLabelDistribution
from repro.scenarios import get_scenario, run_scenario
from repro.types import UNREACHABLE
from repro.utils.seeding import spawn_rngs

#: The shapes of the crosscheck pool, plus the degenerate ones.
GRAPHS = {
    "directed-clique": lambda: complete_graph(6, directed=True),
    "undirected-clique": lambda: complete_graph(5),
    "er-directed": lambda: erdos_renyi_graph(8, 0.4, directed=True, seed=3),
    "star": lambda: star_graph(7),
    "path": lambda: path_graph(6),
    "disconnected": lambda: StaticGraph(7, [(0, 1), (1, 2), (4, 5)]),
    "one-way-digraph": lambda: StaticGraph(
        5, [(0, 1), (1, 2), (2, 0), (3, 2)], directed=True
    ),
    "no-edges": lambda: StaticGraph(4),
    "one-vertex": lambda: StaticGraph(1),
    "no-vertices": lambda: StaticGraph(0, directed=True),
}


def _oracle_preserves(network: TemporalGraph) -> bool:
    if network.n == 0:
        return True  # no pairs to preserve; the oracle needs a source
    journeys = oracle_arrival_matrix(network) < UNREACHABLE
    paths = all_pairs_shortest_paths_reference(network.graph) >= 0
    return bool(np.array_equal(journeys, paths))


def _draws(graph: StaticGraph, trials: int, r: int, lifetime: int, seed: int):
    return [
        uniform_random_labels(graph, labels_per_edge=r, lifetime=lifetime, seed=rng)
        for rng in spawn_rngs(seed, trials)
    ]


class TestStackedEqualsPerTrial:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("r", [1, 3])
    def test_against_the_oracle(self, name, r):
        graph = GRAPHS[name]()
        # A lifetime of 4 makes duplicate draws common at r = 3.
        networks = _draws(graph, 9, r, 4, seed=len(name) + r)
        expected = [_oracle_preserves(network) for network in networks]
        assert [preserves_reachability(network) for network in networks] == expected
        assert preserves_reachability_stacked(networks) == expected

    @pytest.mark.parametrize("trials", [1, 7, 8, 9, 17])
    def test_stack_heights(self, trials):
        graph = erdos_renyi_graph(12, 0.25, seed=5)
        networks = _draws(graph, trials, 2, 12, seed=trials)
        expected = [preserves_reachability(network) for network in networks]
        assert preserves_reachability_stacked(networks) == expected
        # One sweep per stack of at most STACK_HEIGHT networks.
        with telemetry.session() as rec:
            fresh = _draws(graph, trials, 2, 12, seed=trials)
            assert preserves_reachability_stacked(iter(fresh)) == expected
        assert rec.counters["kernel.forward.sweeps"] == -(-trials // STACK_HEIGHT)

    def test_random_graphs_and_digraphs(self):
        rng = np.random.default_rng(2027)
        for _ in range(40):
            n = int(rng.integers(1, 14))
            directed = bool(rng.integers(0, 2))
            p = float(rng.choice([0.05, 0.15, 0.3, 0.6]))
            graph = erdos_renyi_graph(n, p, directed=directed, seed=int(rng.integers(1 << 30)))
            r = int(rng.integers(1, 4))
            lifetime = int(rng.integers(1, 2 * n + 3))
            trials = int(rng.integers(1, 3 * STACK_HEIGHT))
            networks = _draws(graph, trials, r, lifetime, int(rng.integers(1 << 30)))
            expected = [preserves_reachability(network) for network in networks]
            assert preserves_reachability_stacked(networks) == expected, (graph, r)

    @pytest.mark.parametrize("directed", [False, True])
    def test_edges_without_labels(self, directed):
        graph = StaticGraph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], directed=directed
        )
        labelings = [
            {0: [1], 1: [2], 2: [3], 3: [4], 4: [5]},
            {0: [1, 5], 2: [2]},
            {},
            {edge: [edge + 1, 6 - edge] for edge in range(6)},
            {0: [3], 1: [3], 2: [3], 3: [3], 4: [3], 5: [3]},
        ]
        networks = [TemporalGraph(graph, labels, lifetime=6) for labels in labelings]
        expected = [_oracle_preserves(network) for network in networks]
        assert [preserves_reachability(network) for network in networks] == expected
        assert preserves_reachability_stacked(networks) == expected

    def test_stacks_give_up_the_deficient_exit(self):
        graph = star_graph(16)
        networks = _draws(graph, STACK_HEIGHT, 1, 16, seed=1)
        assert not any(preserves_reachability_stacked(networks[:1]))
        with telemetry.session() as rec:
            assert not any(preserves_reachability_stacked(networks))
        assert rec.counters["kernel.forward.sweeps"] == 1
        assert "kernel.forward.deficient_exits" not in rec.counters
        # A stack of one is the network itself and keeps the exit.
        with telemetry.session() as rec:
            preserves_reachability_stacked(networks[:1])
        assert rec.counters["kernel.forward.deficient_exits"] == 1

    def test_networks_must_share_one_graph_object(self):
        first = uniform_random_labels(path_graph(4), seed=0)
        second = uniform_random_labels(path_graph(4), seed=1)
        with pytest.raises(GraphError):
            preserves_reachability_stacked([first, second])


class TestStackedNetwork:
    def test_blocks_are_the_networks(self):
        graph = erdos_renyi_graph(9, 0.4, directed=True, seed=2)
        networks = _draws(graph, 3, 2, 9, seed=4)
        stack = TemporalGraph.stacked(networks)
        assert stack.graph is graph.disjoint_copies(3)
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
        stack = TemporalGraph.stacked(_draws(graph, 4, 1, 10, seed=0))
        arcs = stack.graph.edge_arcs
        assert np.shares_memory(stack.time_arc_tails, arcs.tails)
        assert np.shares_memory(stack.time_arc_heads, arcs.heads)

    @pytest.mark.parametrize(
        "outputs",
        [{}, {"arrivals": True}, {"arrivals": False, "settles": True}],
    )
    def test_a_stacked_sweep_is_reach_only(self, outputs):
        networks = _draws(path_graph(4), 2, 1, 4, seed=0)
        stack = TemporalGraph.stacked(networks)
        with pytest.raises(ValueError, match="reach-only"):
            _sweep(stack, None, 0, reverse=False, copies=2, **outputs)
        required = networks[0].graph.packed_reachability_closure
        with pytest.raises(ValueError, match="reach-only"):
            _sweep(
                stack, None, 0, reverse=False, arrivals=False, required=required, copies=2
            )


class TestDisjointCopies:
    def test_cached_per_count_on_the_graph(self):
        graph = path_graph(5)
        assert graph.disjoint_copies(1) is graph
        union = graph.disjoint_copies(3)
        assert union is graph.disjoint_copies(3)
        assert union is not graph.disjoint_copies(4)
        assert (union.n, union.m, union.directed) == (15, 12, False)
        pairs = union.edge_pairs.reshape(3, graph.m, 2)
        for t in range(3):
            np.testing.assert_array_equal(pairs[t], graph.edge_pairs + t * graph.n)

    def test_freed_graphs_never_lend_their_union(self):
        # A cache keyed by id() would hand a new graph the union of a freed
        # one whose id it reuses.
        for n in range(3, 40):
            graph = path_graph(n) if n % 2 else star_graph(n)
            union = graph.disjoint_copies(STACK_HEIGHT)
            assert (union.n, union.m) == (STACK_HEIGHT * n, STACK_HEIGHT * graph.m)
            del graph, union
            gc.collect()

    def test_a_stacked_decision_builds_no_union_closure(self, monkeypatch):
        graph = erdos_renyi_graph(10, 0.3, directed=True, seed=1)
        networks = _draws(graph, STACK_HEIGHT, 2, 10, seed=6)
        closures = []
        original = StaticGraph.reachability_closure.fget

        def counted(self):
            closures.append(self.n)
            return original(self)

        monkeypatch.setattr(StaticGraph, "reachability_closure", property(counted))
        preserves_reachability_stacked(networks)
        assert set(closures) == {graph.n}


class TestReachabilityProbability:
    @pytest.mark.parametrize(
        "graph, r, trials",
        [
            (star_graph(24), 3, 20),
            (path_graph(12), 6, 9),
            (complete_graph(8, directed=True), 1, 8),
            (StaticGraph(6, [(0, 1), (2, 3)]), 2, 1),
        ],
    )
    def test_equals_the_per_trial_loop(self, graph, r, trials):
        expected = sum(
            preserves_reachability(
                uniform_random_labels(graph, labels_per_edge=r, seed=rng)
            )
            for rng in spawn_rngs(11, trials)
        ) / trials
        assert reachability_probability(graph, r, trials=trials, seed=11) == expected

    def test_f_case_distribution(self):
        graph = erdos_renyi_graph(16, 0.3, seed=4)
        distribution = GeometricLabelDistribution(16, q=0.2)
        expected = sum(
            preserves_reachability(
                uniform_random_labels(
                    graph, labels_per_edge=4, distribution=distribution, seed=rng
                )
            )
            for rng in spawn_rngs(3, 13)
        ) / 13
        assert reachability_probability(
            graph, 4, trials=13, distribution=distribution, seed=3
        ) == expected


class TestScenarioStacks:
    """A shard of ``strong_reachability`` trials runs as stacks.

    Its values equal one-trial shards' (each a stack of one, with the
    deficient exit), and each trial still counts one ``scenario.trials``.
    """

    def test_e5_records_equal_one_trial_shards(self):
        scenario = get_scenario("E5")
        stacked = run_scenario(scenario, scale="quick", seed=9)
        with telemetry.session() as rec:
            single = run_scenario(scenario, scale="quick", seed=9, shard_size=1)
        assert stacked.to_records() == single.to_records()
        # An explicit shard_size overrides the stack floor.
        assert rec.counters["engine.shards"] == rec.counters["engine.trials"]

    def test_stacked_suites_get_shards_of_a_stack_or_more(self):
        # E5's 20 quick trials per point run as shards of 8, 8 and 4, where
        # the engine's default plan would cut ten shards of 2.
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("E5"), scale="quick", seed=9)
        points = list(run.points())
        assert {point.repetitions for point in points} == {20}
        assert len(plan_shards(20)) == 10
        assert rec.counters["engine.shards"] == 3 * len(points)

    def test_other_suites_keep_the_engine_plan(self):
        # E1's 5 quick trials per point run one per shard, so --jobs N keeps
        # N workers busy within a point.
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("E1"), scale="quick", seed=9)
        assert rec.counters["engine.shards"] == sum(
            len(plan_shards(point.repetitions)) for point in run.points()
        )
        assert rec.counters["engine.shards"] == rec.counters["engine.trials"]

    def test_e5_checkpoint_of_the_old_default_plan_is_refused(self, tmp_path):
        # The engine's default plan, which E5 ran under before stacks, cut its
        # 20 quick trials per point into shards of 2.
        scenario = get_scenario("E5")
        run_scenario(scenario, scale="quick", seed=9, shard_size=2, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError):
            run_scenario(scenario, scale="quick", seed=9, checkpoint_dir=tmp_path)

    def test_fcase_reachability(self):
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("er-fcase-reachability"), scale="quick", seed=5)
        counters = rec.counters
        trials = sum(point.repetitions for point in run.points())
        assert counters["scenario.trials"] == counters["engine.trials"] == trials
        # One stack, so one layout and one sweep, per shard.
        assert counters["kernel.forward.sweeps"] == counters["engine.shards"]
        assert counters["csr.builds.forward"] == counters["engine.shards"]
