"""Stacked reachability decisions: many trials, one sweep per stack.

``preserves_reachability_stacked`` decides trials straight from their
``(m, r)`` label draws: ``draw_stacks`` cuts them into stacks of
``stack_height`` trials, and each stack's layout on disjoint copies of the
graph is decided by one reach-only sweep.  Every answer must equal the
per-network ``preserves_reachability`` of ``from_label_matrix`` on the same
draws, and the brute-force journeys of ``tests/oracles.py`` against the BFS
closure, on the shapes that could break the block layout: disconnected
graphs (whose closure is not all ones), ``n <= 1``, no edges, no draws,
duplicate draws, a stack exactly at the budget and a trial over it.  The
layouts themselves are pinned in ``tests/test_stacked_layout.py``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from oracles import all_pairs_shortest_paths_reference, oracle_arrival_matrix
from repro import telemetry
from repro.core import reachability
from repro.core.guarantees import reachability_probability
from repro.core.labeling import uniform_label_draws, uniform_random_labels
from repro.core.reachability import (
    STACK_ARCS,
    draw_stacks,
    preserves_reachability,
    preserves_reachability_stacked,
    stack_height,
)
from repro.core.temporal_graph import TemporalGraph
from repro.engine.sharding import plan_shards
from repro.exceptions import CheckpointError
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
from repro.scenarios import labelmodels
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
        uniform_label_draws(graph, labels_per_edge=r, lifetime=lifetime, seed=rng)
        for rng in spawn_rngs(seed, trials)
    ]


def _networks(graph: StaticGraph, draws, lifetime: int) -> list[TemporalGraph]:
    return [TemporalGraph.from_label_matrix(graph, d, lifetime=lifetime) for d in draws]


def _weight(graph: StaticGraph, r: int, lifetime: int) -> int:
    """A trial's weight: its most time arcs, its draws or its bitset rows."""
    return max(graph.num_arcs * min(r, lifetime), graph.m * r, graph.n)


class TestStackedEqualsPerTrial:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("r", [1, 3])
    def test_against_the_oracle(self, name, r):
        graph = GRAPHS[name]()
        # A lifetime of 4 makes duplicate draws common at r = 3.
        draws = _draws(graph, 9, r, 4, seed=len(name) + r)
        networks = _networks(graph, draws, 4)
        expected = [_oracle_preserves(network) for network in networks]
        assert [preserves_reachability(network) for network in networks] == expected
        assert preserves_reachability_stacked(graph, draws, 4) == expected

    @pytest.mark.parametrize("trials", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("budget", [STACK_ARCS, 100, 1])
    def test_stack_heights(self, trials, budget, monkeypatch):
        graph = erdos_renyi_graph(12, 0.25, seed=5)
        draws = _draws(graph, trials, 2, 12, seed=trials)
        expected = [preserves_reachability(network) for network in _networks(graph, draws, 12)]
        monkeypatch.setattr(reachability, "STACK_ARCS", budget)
        assert preserves_reachability_stacked(graph, draws, 12) == expected
        # One sweep per stack: every stack but the last holds the height.
        height = max(1, budget // _weight(graph, 2, 12))
        stacks = -(-trials // height)
        with telemetry.session() as rec:
            fresh = _draws(graph, trials, 2, 12, seed=trials)
            assert preserves_reachability_stacked(graph, iter(fresh), 12) == expected
        assert rec.counters["kernel.forward.sweeps"] == stacks
        assert rec.counters["csr.builds.forward"] == stacks
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
            draws = _draws(graph, trials, r, lifetime, int(rng.integers(1 << 30)))
            networks = _networks(graph, draws, lifetime)
            expected = [preserves_reachability(network) for network in networks]
            assert preserves_reachability_stacked(graph, draws, lifetime) == expected, (graph, r)

    @pytest.mark.parametrize("directed", [False, True])
    def test_repeated_draws_and_no_draws(self, directed):
        graph = StaticGraph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], directed=directed
        )
        draws = [
            np.array([[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6]]),
            np.array([[edge + 1, 6 - edge] for edge in range(6)]),
            np.full((6, 2), 3),
            np.array([[1, 5], [5, 1], [2, 2], [6, 6], [6, 1], [3, 4]]),
        ]
        # Labels drawn on no edge: r = 0.
        none = [np.empty((6, 0), dtype=np.int64)] * 3
        for stack in (draws, none):
            networks = _networks(graph, stack, 6)
            expected = [_oracle_preserves(network) for network in networks]
            assert [preserves_reachability(network) for network in networks] == expected
            assert preserves_reachability_stacked(graph, stack, 6) == expected
        assert not any(preserves_reachability_stacked(graph, none, 6))

    def test_stacks_give_up_the_deficient_exit(self):
        graph = star_graph(16)
        draws = _draws(graph, 8, 1, 16, seed=1)
        assert not any(preserves_reachability_stacked(graph, draws[:1], 16))
        with telemetry.session() as rec:
            assert not any(preserves_reachability_stacked(graph, draws, 16))
        assert rec.counters["kernel.forward.sweeps"] == 1
        assert "kernel.forward.deficient_exits" not in rec.counters
        # A stack of one is the network itself and keeps the exit.
        with telemetry.session() as rec:
            preserves_reachability_stacked(graph, draws[:1], 16)
        assert rec.counters["kernel.forward.deficient_exits"] == 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_at_the_budgets_edges(self, directed):
        # 256 one-label trials of 256 time arcs fill the budget exactly and
        # are one stack; the next trial starts another.  A trial over the
        # budget is a stack of one and keeps the deficient exit.
        pairs = complete_graph(22, directed=directed).edge_pairs[: 256 if directed else 128]
        small = StaticGraph(22, pairs.tolist(), directed=directed)
        assert small.num_arcs == 256 and STACK_ARCS % 256 == 0
        height = STACK_ARCS // 256
        assert stack_height(small, 1, 22) == height
        draws = _draws(small, height + 1, 1, 22, seed=7)
        networks = _networks(small, draws, 22)
        expected = [_oracle_preserves(network) for network in networks[:4]]
        expected += [preserves_reachability(network) for network in networks[4:]]
        assert 0 < sum(expected) < len(expected)
        with telemetry.session() as rec:
            assert preserves_reachability_stacked(small, draws[:height], 22) == expected[:height]
        assert rec.counters["kernel.forward.sweeps"] == 1
        with telemetry.session() as rec:
            assert preserves_reachability_stacked(small, iter(draws), 22) == expected
        assert rec.counters["kernel.forward.sweeps"] == 2

        big_graph = complete_graph(257, directed=directed)
        [big] = _draws(big_graph, 1, 1, 257, seed=8)
        assert big_graph.num_arcs > STACK_ARCS
        assert stack_height(big_graph, 1, 257) == 1
        with telemetry.session() as alone:
            big_expected = preserves_reachability(
                TemporalGraph.from_label_matrix(big_graph, big, lifetime=257)
            )
        with telemetry.session() as rec:
            assert preserves_reachability_stacked(big_graph, [big], 257) == [big_expected]
        # The same layout build and the same sweep, exits included.
        assert rec.counters == alone.counters

        # Beside other trials of its graph, each is a stack of one.
        few = _draws(big_graph, 3, 1, 257, seed=9)
        mixed = [few[0], big, few[1], few[2]]
        assert [len(stack) for stack in draw_stacks(big_graph, mixed, 257)] == [1] * 4
        assert preserves_reachability_stacked(big_graph, mixed, 257) == [
            preserves_reachability(network) for network in _networks(big_graph, mixed, 257)
        ]

    def test_edgeless_networks_weigh_their_rows(self, monkeypatch):
        # No time arcs, but each trial adds n rows to the bitset: stacks
        # hold STACK_ARCS // n of them, not the whole stream.  With no static
        # paths to preserve, every trial preserves reachability.
        n = 1000
        graph = StaticGraph(n)
        draws = _draws(graph, 200, 1, n, seed=3)
        assert {network.num_time_arcs for network in _networks(graph, draws, n)} == {0}
        assert _weight(graph, 1, n) == n
        heights = _record_stack_heights(monkeypatch)
        assert preserves_reachability_stacked(graph, iter(draws), n) == [True] * 200
        height = STACK_ARCS // n
        assert heights == [height] * (200 // height) + [200 % height]


def _record_stack_heights(monkeypatch) -> list[int]:
    """Patch the stack layout builder to log each stack's height."""
    heights: list[int] = []
    build = reachability.build_stack_timearc_csr

    def recorded(graph, draws, lifetime):
        heights.append(len(draws))
        return build(graph, draws, lifetime)

    monkeypatch.setattr(reachability, "build_stack_timearc_csr", recorded)
    return heights


class TestDrawStacks:
    """The cut: fixed heights, in order, never drawn ahead of the stack."""

    def test_every_stack_but_the_last_holds_the_height(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            directed = bool(rng.integers(0, 2))
            graph = erdos_renyi_graph(n, float(rng.random()), directed=directed, seed=1)
            r = int(rng.integers(1, 300))
            lifetime = int(rng.integers(1, 100))
            trials = int(rng.integers(1, 80))
            draws = [np.ones((graph.m, r), dtype=np.int64) for _ in range(trials)]
            stacks = list(draw_stacks(graph, draws, lifetime))
            assert [id(d) for stack in stacks for d in stack] == [id(d) for d in draws]
            height = max(1, STACK_ARCS // max(_weight(graph, r, lifetime), 1))
            assert stack_height(graph, r, lifetime) == height
            assert [len(stack) for stack in stacks[:-1]] == [height] * (len(stacks) - 1)
            assert 0 < len(stacks[-1]) <= height

    def test_each_term_of_the_weight(self):
        # Time arcs: an undirected edge keeps min(r, a) labels per direction.
        path = path_graph(9)
        assert stack_height(path, 4, 9) == STACK_ARCS // (16 * 4)
        # Draws: past the lifetime, the draws outweigh the distinct labels.
        arcs = complete_graph(9, directed=True)
        assert stack_height(arcs, 40, 9) == STACK_ARCS // (72 * 40)
        # Rows: an edgeless graph still adds n rows per trial.
        assert stack_height(StaticGraph(300), 5, 9) == STACK_ARCS // 300

    def test_exactly_at_and_one_past_the_budget(self):
        half = STACK_ARCS // 2
        assert stack_height(StaticGraph(half), 1, 1) == 2
        assert stack_height(StaticGraph(half + 1), 1, 1) == 1
        assert stack_height(StaticGraph(STACK_ARCS), 1, 1) == 1
        assert stack_height(StaticGraph(STACK_ARCS + 1), 1, 1) == 1
        assert list(draw_stacks(StaticGraph(half), [], 1)) == []

    def test_draws_no_trial_ahead(self):
        graph = StaticGraph(STACK_ARCS // 2)
        drawn = []

        def stream():
            for _ in range(5):
                drawn.append(np.empty((0, 1), dtype=np.int64))
                yield drawn[-1]

        for count, stack in enumerate(draw_stacks(graph, stream(), 1), start=1):
            assert len(drawn) == min(2 * count, 5)
            assert len(stack) <= 2


class TestNoUnionIsKept:
    @pytest.mark.parametrize("directed", [False, True])
    def test_a_decision_leaves_no_layout_behind(self, directed, monkeypatch):
        graph = erdos_renyi_graph(10, 0.4, directed=directed, seed=2)
        draws = _draws(graph, 6, 1, 10, seed=3)
        layouts = []
        build = reachability.build_stack_timearc_csr

        def kept(*args):
            layout = build(*args)
            layouts.append(weakref.ref(layout))
            return layout

        monkeypatch.setattr(reachability, "build_stack_timearc_csr", kept)
        expected = [preserves_reachability(network) for network in _networks(graph, draws, 10)]
        assert preserves_reachability_stacked(graph, draws, 10) == expected
        gc.collect()
        # Nothing holds the stack's layout once it is decided: not the base
        # graph, not the draws.
        assert len(layouts) == 1 and layouts[0]() is None

    def test_a_stacked_decision_builds_no_union_closure(self, monkeypatch):
        graph = erdos_renyi_graph(10, 0.3, directed=True, seed=1)
        draws = _draws(graph, 8, 2, 10, seed=6)
        closures = []
        original = StaticGraph.reachability_closure.fget

        def counted(self):
            closures.append(self.n)
            return original(self)

        monkeypatch.setattr(StaticGraph, "reachability_closure", property(counted))
        preserves_reachability_stacked(graph, draws, 10)
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

    def test_at_most_one_stack_of_draws_is_alive(self, monkeypatch):
        # With a budget of a few trials, each point's shard runs several
        # stacks; while one is laid out, only its draws and the one drawn
        # ahead of it are alive, not the shard's.
        monkeypatch.setattr(reachability, "STACK_ARCS", 2_000)
        drawn = []
        draw = labelmodels.uniform_label_draws

        def tracked(*args, **kwargs):
            draws = draw(*args, **kwargs)
            drawn.append(weakref.ref(draws))
            return draws

        alive_at_builds = []
        build = reachability.build_stack_timearc_csr

        def counted(graph, draws, lifetime):
            alive = sum(ref() is not None for ref in drawn)
            alive_at_builds.append((alive, len(draws)))
            return build(graph, draws, lifetime)

        monkeypatch.setattr(labelmodels, "uniform_label_draws", tracked)
        monkeypatch.setattr(reachability, "build_stack_timearc_csr", counted)
        scenario = get_scenario("E5")
        run = run_scenario(scenario, scale="quick", seed=9)
        monkeypatch.undo()
        assert run.to_records() == run_scenario(scenario, scale="quick", seed=9).to_records()
        assert len(drawn) == sum(point.repetitions for point in run.points())
        assert len(alive_at_builds) > len(list(run.points()))
        assert all(alive <= height + 1 for alive, height in alive_at_builds), alive_at_builds

    def test_a_point_of_many_draws_stays_within_the_bound(self, monkeypatch):
        # r = 64·a draws per edge: the draws outweigh the distinct labels,
        # so they set the height, and every array a stack gathers (a key
        # per draw and direction) stays within twice the budget.
        n, trials = 8, 40
        lifetime, r = n, 64 * n
        scenario = Scenario(
            name="many-draws-reachability",
            title="",
            description="",
            graph=GraphFamilySpec("star", {"n": "n"}),
            labels=LabelModelSpec(model="uniform", labels_per_edge="r", lifetime="n"),
            metrics=MetricSuite.of("strong_reachability"),
            scales={
                "quick": ScenarioScale(
                    trials, (SweepBlock(axes={"r": [r]}, constants={"n": n}),)
                )
            },
        )
        graph = star_graph(n)
        assert _weight(graph, r, lifetime) == graph.m * r
        height = stack_height(graph, r, lifetime)
        stacks = []
        build = reachability.build_stack_timearc_csr

        def measured(graph, draws, lifetime):
            layout = build(graph, draws, lifetime)
            stacks.append((sum(d.size for d in draws), layout.num_arcs, layout.n))
            return layout

        monkeypatch.setattr(reachability, "build_stack_timearc_csr", measured)
        run = run_scenario(scenario, scale="quick", seed=4)
        monkeypatch.undo()
        assert run.to_records() == run_scenario(
            scenario, scale="quick", seed=4, shard_size=1
        ).to_records()
        assert len(stacks) == -(-trials // height) > 1
        for drawn, arcs, rows in stacks:
            assert drawn <= STACK_ARCS and arcs <= STACK_ARCS and rows <= STACK_ARCS
            assert drawn * graph.num_arcs // graph.m <= 2 * STACK_ARCS

    def test_edgeless_point_runs_bounded_stacks(self, monkeypatch):
        # G(n, 0) has no edges, so its networks have no time arcs; the point's
        # one shard still draws and sweeps them in stacks of STACK_ARCS // n.
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

        def recorded(self, graph, stack, lifetime, forms):
            sampled.append(len(stack))
            return run_stack(self, graph, stack, lifetime, forms)

        monkeypatch.setattr(ScenarioTrial, "_run_stack", recorded)
        swept = _record_stack_heights(monkeypatch)
        with telemetry.session() as rec:
            run = run_scenario(scenario, scale="quick", seed=1)
        assert rec.counters["engine.shards"] == 1
        [record] = run.to_records()
        assert (record["repetitions"], record["reachable_mean"]) == (trials, 1.0)
        height = STACK_ARCS // n
        assert sampled == swept == [height] * (trials // height) + [trials % height]

    def test_models_without_draws_run_trial_by_trial(self):
        # The box model has no draw form: its suite keeps the engine's plan
        # and runs one trial at a time, its records unchanged.
        scenario = Scenario(
            name="box-reachability",
            title="",
            description="",
            graph=GraphFamilySpec("path", {"n": "n"}),
            labels=LabelModelSpec(model="box", options={"mode": "random"}),
            metrics=MetricSuite.of("strong_reachability"),
            scales={"quick": ScenarioScale(6, (SweepBlock(axes={"n": [5, 8]}),))},
        )
        with telemetry.session() as rec:
            run = run_scenario(scenario, scale="quick", seed=2)
        assert "scenario.stack" not in rec.timings
        assert rec.timings["scenario.trial"].count == rec.counters["scenario.trials"] == 12
        assert rec.counters["engine.shards"] == sum(
            len(plan_shards(point.repetitions)) for point in run.points()
        )
        single = run_scenario(scenario, scale="quick", seed=2, shard_size=1)
        assert run.to_records() == single.to_records()
        assert {record["reachable_mean"] for record in run.to_records()} == {1.0}

    def test_fcase_reachability(self):
        with telemetry.session() as rec:
            run = run_scenario(get_scenario("er-fcase-reachability"), scale="quick", seed=5)
        counters = rec.counters
        trials = sum(point.repetitions for point in run.points())
        assert counters["scenario.trials"] == counters["engine.trials"] == trials
        # One stack, so one layout and one sweep, per shard.
        assert counters["kernel.forward.sweeps"] == counters["engine.shards"]
        assert counters["csr.builds.forward"] == counters["engine.shards"]
