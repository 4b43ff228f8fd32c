"""Stacked reachability decisions: many trials, one sweep per stack.

``preserves_reachability_stacked`` lays networks over one graph out as one
network on disjoint copies of the graph, in stacks of up to ``STACK_ARCS``
time arcs, and decides each stack with one reach-only sweep.  Every answer
must equal the per-network ``preserves_reachability``, and the brute-force
journeys of ``tests/oracles.py`` against the BFS closure, on the shapes
that could break the block layout: disconnected graphs (whose closure is
not all ones), ``n <= 1``, no edges, edges without labels, duplicate draws,
a stack exactly at the budget and a network over it.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from oracles import all_pairs_shortest_paths_reference, oracle_arrival_matrix
from repro import telemetry
from repro.core import reachability
from repro.core.guarantees import reachability_probability
from repro.core.journeys import _sweep
from repro.core.labeling import uniform_random_labels
from repro.core.reachability import (
    STACK_ARCS,
    arc_stacks,
    preserves_reachability,
    preserves_reachability_stacked,
    stack_weight,
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
from repro.scenarios import (
    GraphFamilySpec,
    LabelModelSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    ScenarioTrial,
    SweepBlock,
    get_scenario,
    run_scenario,
)
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
    @pytest.mark.parametrize("budget", [STACK_ARCS, 100, 1])
    def test_stack_heights(self, trials, budget, monkeypatch):
        graph = erdos_renyi_graph(12, 0.25, seed=5)
        networks = _draws(graph, trials, 2, 12, seed=trials)
        expected = [preserves_reachability(network) for network in networks]
        monkeypatch.setattr(reachability, "STACK_ARCS", budget)
        assert preserves_reachability_stacked(networks) == expected
        # One sweep per stack: a stack takes networks until the next one
        # would carry it past the budget.
        stacks, total = 0, budget
        for network in networks:
            if total + stack_weight(network) > budget:
                stacks, total = stacks + 1, 0
            total += stack_weight(network)
        with telemetry.session() as rec:
            fresh = _draws(graph, trials, 2, 12, seed=trials)
            assert preserves_reachability_stacked(iter(fresh)) == expected
        assert rec.counters["kernel.forward.sweeps"] == stacks
        if budget == STACK_ARCS:
            assert stacks == 1

    def test_random_graphs_and_digraphs(self):
        rng = np.random.default_rng(2027)
        for _ in range(40):
            n = int(rng.integers(1, 14))
            directed = bool(rng.integers(0, 2))
            p = float(rng.choice([0.05, 0.15, 0.3, 0.6]))
            graph = erdos_renyi_graph(n, p, directed=directed, seed=int(rng.integers(1 << 30)))
            r = int(rng.integers(1, 4))
            lifetime = int(rng.integers(1, 2 * n + 3))
            trials = int(rng.integers(1, 24))
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
        networks = _draws(graph, 8, 1, 16, seed=1)
        assert not any(preserves_reachability_stacked(networks[:1]))
        with telemetry.session() as rec:
            assert not any(preserves_reachability_stacked(networks))
        assert rec.counters["kernel.forward.sweeps"] == 1
        assert "kernel.forward.deficient_exits" not in rec.counters
        # A stack of one is the network itself and keeps the exit.
        with telemetry.session() as rec:
            preserves_reachability_stacked(networks[:1])
        assert rec.counters["kernel.forward.deficient_exits"] == 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_at_the_budgets_edges(self, directed):
        # 256 one-label networks of 256 time arcs fill the budget exactly and
        # are one stack; the next network starts another.  A network over
        # the budget is a stack of one and keeps the deficient exit.
        pairs = complete_graph(22, directed=directed).edge_pairs[: 256 if directed else 128]
        small = StaticGraph(22, pairs.tolist(), directed=directed)
        assert small.num_arcs == 256 and STACK_ARCS % 256 == 0
        height = STACK_ARCS // 256
        networks = _draws(small, height + 1, 1, 22, seed=7)
        expected = [_oracle_preserves(network) for network in networks[:4]]
        expected += [preserves_reachability(network) for network in networks[4:]]
        assert 0 < sum(expected) < len(expected)
        with telemetry.session() as rec:
            assert preserves_reachability_stacked(networks[:height]) == expected[:height]
        assert rec.counters["kernel.forward.sweeps"] == 1
        with telemetry.session() as rec:
            assert preserves_reachability_stacked(iter(networks)) == expected
        assert rec.counters["kernel.forward.sweeps"] == 2

        big_graph = complete_graph(257, directed=directed)
        [big] = _draws(big_graph, 1, 1, 257, seed=8)
        assert big.num_time_arcs > STACK_ARCS
        with telemetry.session() as alone:
            big_expected = preserves_reachability(big)
        with telemetry.session() as rec:
            assert preserves_reachability_stacked([big]) == [big_expected]
        # The same sweep, exits included (the layout is built once, above).
        assert rec.counters == {
            name: count
            for name, count in alone.counters.items()
            if name.startswith("kernel.")
        }

        # Between small networks of its graph, it is still a stack of one.
        few = _draws(big_graph, 3, 1, 257, seed=9)
        mixed = [few[0], big, few[1], few[2]]
        assert [len(stack) for stack in arc_stacks(mixed, stack_weight)] == [1, 1, 1, 1]
        assert preserves_reachability_stacked(mixed) == [
            preserves_reachability(network) for network in mixed
        ]

    def test_edgeless_networks_weigh_their_rows(self, monkeypatch):
        # No time arcs, but each network adds n rows to the bitset: stacks
        # hold STACK_ARCS // n of them, not the whole stream.  With no static
        # paths to preserve, every network preserves reachability.
        n = 1000
        graph = StaticGraph(n)
        networks = _draws(graph, 200, 1, n, seed=3)
        assert {network.num_time_arcs for network in networks} == {0}
        assert {stack_weight(network) for network in networks} == {n}
        heights = _record_stack_heights(monkeypatch)
        assert preserves_reachability_stacked(iter(networks)) == [True] * 200
        height = STACK_ARCS // n
        assert heights == [height] * (200 // height) + [200 % height]

    def test_networks_must_share_one_graph_object(self):
        first = uniform_random_labels(path_graph(4), seed=0)
        second = uniform_random_labels(path_graph(4), seed=1)
        with pytest.raises(GraphError):
            preserves_reachability_stacked([first, second])


def _record_stack_heights(monkeypatch) -> list[int]:
    """Patch :meth:`TemporalGraph.stacked` to log each stack's height."""
    heights: list[int] = []
    stacked = TemporalGraph.stacked.__func__

    def recorded(cls, stack):
        heights.append(len(stack))
        return stacked(cls, stack)

    monkeypatch.setattr(TemporalGraph, "stacked", classmethod(recorded))
    return heights


class TestArcStacks:
    """The cut: greedy, in order, and over the budget only for one item."""

    def test_random_sizes(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            sizes = rng.integers(0, 2 * STACK_ARCS, size=int(rng.integers(0, 30)))
            sizes[rng.random(sizes.size) < 0.5] //= 64
            sizes[rng.random(sizes.size) < 0.1] = 0
            stacks = list(arc_stacks(sizes.tolist(), int))
            assert [size for stack in stacks for size in stack] == sizes.tolist()
            for index, stack in enumerate(stacks):
                assert stack
                if sum(stack) > STACK_ARCS:
                    assert len(stack) == 1
                if index + 1 < len(stacks):
                    # The next stack's first item would not have fitted.
                    assert sum(stack) + stacks[index + 1][0] > STACK_ARCS

    def test_exactly_at_and_one_past_the_budget(self):
        half = STACK_ARCS // 2
        assert list(arc_stacks([half, half, 1], int)) == [[half, half], [1]]
        assert list(arc_stacks([half, half + 1, 0], int)) == [[half], [half + 1, 0]]
        assert list(arc_stacks([STACK_ARCS + 1, 0, 0], int)) == [[STACK_ARCS + 1], [0, 0]]
        assert list(arc_stacks([0, STACK_ARCS + 1], int)) == [[0], [STACK_ARCS + 1]]
        assert list(arc_stacks([], int)) == []

    def test_draws_one_item_ahead(self):
        drawn = []

        def stream():
            for size in [STACK_ARCS // 2] * 5:
                drawn.append(size)
                yield size

        for count, stack in enumerate(arc_stacks(stream(), int), start=1):
            assert len(drawn) <= 2 * count + 1
            assert len(stack) <= 2


class TestStackedNetwork:
    def test_blocks_are_the_networks(self):
        graph = erdos_renyi_graph(9, 0.4, directed=True, seed=2)
        networks = _draws(graph, 3, 2, 9, seed=4)
        stack = TemporalGraph.stacked(networks)
        assert stack.graph == graph.disjoint_copies(3)
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
    def test_derived_per_call_not_kept(self):
        graph = path_graph(5)
        assert graph.disjoint_copies(1) is graph
        union = graph.disjoint_copies(3)
        again = graph.disjoint_copies(3)
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
        union = graph.disjoint_copies(copies)
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

    @pytest.mark.parametrize("directed", [False, True])
    def test_a_decision_leaves_no_union_on_the_base_graph(self, directed, monkeypatch):
        graph = erdos_renyi_graph(10, 0.4, directed=directed, seed=2)
        networks = _draws(graph, 6, 1, 10, seed=3)
        unions = []
        stacked = TemporalGraph.stacked.__func__

        def kept(cls, stack):
            network = stacked(cls, stack)
            unions.append(network.graph)
            return network

        monkeypatch.setattr(TemporalGraph, "stacked", classmethod(kept))
        expected = [preserves_reachability(network) for network in networks]
        assert preserves_reachability_stacked(networks) == expected
        [union] = unions
        assert union.n == 6 * graph.n
        gc.collect()
        # Only this test's list holds the union: the base graph keeps
        # nothing of it.
        assert [ref for ref in gc.get_referrers(union) if ref is not unions] == []

    def test_freed_graphs_never_lend_their_union(self):
        # A cache keyed by id() would hand a new graph the union of a freed
        # one whose id it reuses.
        for n in range(3, 40):
            graph = path_graph(n) if n % 2 else star_graph(n)
            union = graph.disjoint_copies(8)
            assert (union.n, union.m) == (8 * n, 8 * graph.m)
            del graph, union
            gc.collect()

    def test_a_stacked_decision_builds_no_union_closure(self, monkeypatch):
        graph = erdos_renyi_graph(10, 0.3, directed=True, seed=1)
        networks = _draws(graph, 8, 2, 10, seed=6)
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

    def test_stacked_suites_run_one_shard_per_point(self):
        # E5's 20 quick trials per point run as one shard, where the
        # engine's default plan would cut ten shards of 2.
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("E5"), scale="quick", seed=9)
        points = list(run.points())
        assert {point.repetitions for point in points} == {20}
        assert len(plan_shards(20)) == 10
        assert rec.counters["engine.shards"] == len(points)

    def test_other_suites_keep_the_engine_plan(self):
        # E1's 5 quick trials per point run one per shard, so --jobs N keeps
        # N workers busy within a point.
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("E1"), scale="quick", seed=9)
        assert rec.counters["engine.shards"] == sum(
            len(plan_shards(point.repetitions)) for point in run.points()
        )
        assert rec.counters["engine.shards"] == rec.counters["engine.trials"]

    @pytest.mark.parametrize("old_shard_size", [2, 8])
    def test_e5_checkpoint_of_an_old_plan_is_refused(self, tmp_path, old_shard_size):
        # The engine's default plan, which E5 ran under before stacks, cut its
        # 20 quick trials per point into shards of 2; stacks of eight trials
        # ran as shards of 8, 8 and 4.
        scenario = get_scenario("E5")
        run_scenario(
            scenario, scale="quick", seed=9, shard_size=old_shard_size,
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(CheckpointError):
            run_scenario(scenario, scale="quick", seed=9, checkpoint_dir=tmp_path)

    def test_at_most_one_stack_of_networks_is_alive(self, monkeypatch):
        # With a budget of a few networks, each point's shard runs several
        # stacks; while one is decided, only its networks and the one drawn
        # ahead of it are alive, not the shard's.
        monkeypatch.setattr(reachability, "STACK_ARCS", 2_000)
        alive_at_sweeps = []
        stacked = TemporalGraph.stacked.__func__

        def counted(cls, stack):
            graph = stack[0].graph
            alive = sum(
                1
                for obj in gc.get_objects()
                if type(obj) is TemporalGraph and obj.graph is graph
            )
            alive_at_sweeps.append((alive, len(stack)))
            return stacked(cls, stack)

        monkeypatch.setattr(TemporalGraph, "stacked", classmethod(counted))
        scenario = get_scenario("E5")
        run = run_scenario(scenario, scale="quick", seed=9)
        monkeypatch.undo()
        assert run.to_records() == run_scenario(scenario, scale="quick", seed=9).to_records()
        assert len(alive_at_sweeps) > len(list(run.points()))
        assert all(alive <= height + 1 for alive, height in alive_at_sweeps), alive_at_sweeps

    def test_edgeless_point_runs_bounded_stacks(self, monkeypatch):
        # G(n, 0) has no edges, so its networks have no time arcs; the point's
        # one shard still samples and sweeps them in stacks of STACK_ARCS // n.
        n, trials = 1000, 150
        scenario = Scenario(
            name="edgeless-reachability",
            title="",
            description="",
            graph=GraphFamilySpec("erdos_renyi", {"n": "n", "p": 0.0}),
            labels=LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="n"),
            metrics=MetricSuite.of("strong_reachability"),
            scales={"quick": ScenarioScale(trials, (SweepBlock(axes={"n": [n]}),))},
        )
        sampled = []
        run_stack = ScenarioTrial._run_stack

        def recorded(self, stack, forms):
            sampled.append(len(stack))
            return run_stack(self, stack, forms)

        monkeypatch.setattr(ScenarioTrial, "_run_stack", recorded)
        swept = _record_stack_heights(monkeypatch)
        with telemetry.session() as rec:
            run = run_scenario(scenario, scale="quick", seed=1)
        assert rec.counters["engine.shards"] == 1
        [record] = run.to_records()
        assert (record["repetitions"], record["reachable_mean"]) == (trials, 1.0)
        height = STACK_ARCS // n
        assert sampled == swept == [height] * (trials // height) + [trials % height]

    def test_fcase_reachability(self):
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("er-fcase-reachability"), scale="quick", seed=5)
        counters = rec.counters
        trials = sum(point.repetitions for point in run.points())
        assert counters["scenario.trials"] == counters["engine.trials"] == trials
        # One stack, so one layout and one sweep, per shard.
        assert counters["kernel.forward.sweeps"] == counters["engine.shards"]
        assert counters["csr.builds.forward"] == counters["engine.shards"]
