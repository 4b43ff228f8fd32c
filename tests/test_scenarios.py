"""Tests for the declarative scenario subsystem (specs, registries, pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.io.serialization import read_scenario_json, write_scenario_json
from repro.scenarios import (
    DIRECT_METRICS,
    GRAPH_FAMILIES,
    LABEL_MODELS,
    METRICS,
    GraphFamilySpec,
    LabelModelSpec,
    MetricSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    ScenarioTrial,
    SweepBlock,
    eval_param_expr,
    experiment_scenarios,
    get_scenario,
    iter_scenarios,
    run_scenario,
    scenario_names,
)
from repro.scenarios.families import build_graph, build_sized_family
from repro.scenarios.registry import register_scenario


class TestParamExpressions:
    def test_literals_pass_through(self):
        assert eval_param_expr(5, {}) == 5
        assert eval_param_expr(2.5, {}) == 2.5
        assert eval_param_expr(None, {}) is None
        assert eval_param_expr(True, {}) is True

    def test_bare_name_preserves_type(self):
        assert eval_param_expr("n", {"n": 64}) == 64
        assert eval_param_expr("directed", {"directed": True}) is True

    def test_products(self):
        assert eval_param_expr("multiplier * n", {"multiplier": 4, "n": 16}) == 64
        assert eval_param_expr("2 * n", {"n": 10}) == 20
        assert eval_param_expr("0.5 * n", {"n": 10}) == 5.0

    def test_integer_string(self):
        assert eval_param_expr("64", {}) == 64

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            eval_param_expr("bogus", {"n": 3})

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            eval_param_expr("n * ", {"n": 3})


class TestSpecsRoundTrip:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_every_registered_scenario_round_trips_through_json(self, name):
        scenario = get_scenario(name)
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario

    def test_round_trip_through_files(self, tmp_path):
        scenario = get_scenario("E1")
        path = write_scenario_json(scenario, tmp_path / "e1.json")
        assert read_scenario_json(path) == scenario

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_json("{not json")

    def test_direct_mode_requires_single_metric(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                title="",
                description="",
                graph=GraphFamilySpec("none"),
                labels=LabelModelSpec(model="none"),
                metrics=MetricSuite.of("er_connectivity", "strong_reachability"),
                scales={"quick": ScenarioScale(1, (SweepBlock(axes={"n": [4]}),))},
                mode="direct",
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                title="",
                description="",
                graph=GraphFamilySpec("none"),
                labels=LabelModelSpec(model="none"),
                metrics=MetricSuite.of("er_connectivity"),
                scales={"quick": ScenarioScale(1, (SweepBlock(axes={"n": [4]}),))},
                mode="warp",
            )


class TestRegistry:
    def test_experiment_scenarios_are_registered(self):
        assert sorted(experiment_scenarios()) == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
        ]

    def test_registry_contains_registry_only_scenarios(self):
        names = scenario_names()
        assert "hypercube-urtn-diameter" in names
        assert "er-fcase-reachability" in names

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("e1") is get_scenario("E1")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("E1")
        with pytest.raises(ConfigurationError):
            register_scenario(scenario)

    def test_iter_scenarios_sorted(self):
        names = [scenario.name for scenario in iter_scenarios()]
        assert names == sorted(names)


class TestFamilies:
    def test_build_graph_resolves_expressions(self):
        spec = GraphFamilySpec("clique", {"n": "n", "directed": True})
        graph = build_graph(spec, {"n": 8})
        assert graph.n == 8 and graph.directed

    def test_build_graph_cached_per_point(self):
        spec = GraphFamilySpec("star", {"n": "n"})
        assert build_graph(spec, {"n": 9}) is build_graph(spec, {"n": 9})

    def test_none_family_builds_nothing(self):
        assert build_graph(GraphFamilySpec("none"), {}) is None

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            build_graph(GraphFamilySpec("moebius"), {})

    def test_sized_families_match_e6_grid(self):
        for family in ("path", "cycle", "grid", "hypercube", "binary_tree", "erdos_renyi"):
            graph = build_sized_family(family, 16)
            assert graph.n >= 2

    def test_registries_are_populated(self):
        assert "clique" in GRAPH_FAMILIES and "gnp_supercritical" in GRAPH_FAMILIES
        assert "uniform" in LABEL_MODELS and "box" in LABEL_MODELS
        assert "distance_summary" in METRICS and "er_connectivity" in METRICS
        assert "theorem7_por_audit" in DIRECT_METRICS


class TestScenarioTrial:
    def test_trial_is_picklable(self):
        import pickle

        trial = ScenarioTrial(get_scenario("E1"))
        clone = pickle.loads(pickle.dumps(trial))
        params = {"n": 16, "directed": True}
        a = trial(params, np.random.default_rng(3))
        b = clone(params, np.random.default_rng(3))
        assert a == b

    def test_unknown_metric_rejected(self):
        scenario = Scenario(
            name="bad-metric",
            title="",
            description="",
            graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
            labels=LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="n"),
            metrics=MetricSuite.of("no-such-metric"),
            scales={"quick": ScenarioScale(1, (SweepBlock(axes={"n": [4]}),))},
        )
        with pytest.raises(ConfigurationError):
            ScenarioTrial(scenario)({"n": 4}, np.random.default_rng(0))

    def test_metric_requiring_network_rejects_none_model(self):
        scenario = Scenario(
            name="no-net",
            title="",
            description="",
            graph=GraphFamilySpec("none"),
            labels=LabelModelSpec(model="none"),
            metrics=MetricSuite.of("temporal_diameter"),
            scales={"quick": ScenarioScale(1, (SweepBlock(axes={"n": [4]}),))},
        )
        with pytest.raises(ConfigurationError):
            ScenarioTrial(scenario)({"n": 4}, np.random.default_rng(0))


class TestRunScenario:
    def test_registry_only_scenario_runs_from_definition(self):
        result = run_scenario(get_scenario("hypercube-urtn-diameter"), scale="quick", seed=3)
        records = result.to_records()
        assert len(records) == 2
        for record in records:
            assert 0.0 < record["reachable_fraction_mean"] <= 1.0
            assert record["mean_temporal_distance_mean"] > 0.0

    def test_er_fcase_scenario_shows_reachability_threshold_shape(self):
        result = run_scenario(get_scenario("er-fcase-reachability"), scale="quick", seed=3)
        records = result.to_records()
        by_point = {(r["param_n"], r["param_r"]): r["reachable_mean"] for r in records}
        # more labels per edge can only help reachability
        for n in {key[0] for key in by_point}:
            rs = sorted(r for (nn, r) in by_point if nn == n)
            values = [by_point[(n, r)] for r in rs]
            assert values == sorted(values)

    def test_default_seed_is_used_when_none_given(self):
        scenario = get_scenario("hypercube-urtn-diameter")
        a = run_scenario(scenario, scale="quick")
        b = run_scenario(scenario, scale="quick", seed=scenario.default_seed)
        assert a.to_records() == b.to_records()

    def test_jobs_bit_identical_for_registry_only_scenario(self):
        scenario = get_scenario("er-fcase-reachability")
        serial = run_scenario(scenario, scale="quick", seed=11)
        parallel = run_scenario(scenario, scale="quick", seed=11, jobs=2)
        assert serial.to_records() == parallel.to_records()

    def test_centrality_scenario_runs_from_registry_definition(self):
        result = run_scenario(
            get_scenario("clique-temporal-centrality"), scale="quick", seed=9
        )
        records = result.to_records()
        assert len(records) == 2
        for record in records:
            # one uniform label per arc of the directed clique: every vertex
            # reaches (and is reached by) everyone, so the fractions saturate
            # and the closeness statistics stay inside (0, 1].
            assert record["mean_influence_mean"] == 1.0
            assert record["mean_reach_mean"] == 1.0
            assert 0.0 < record["mean_closeness_mean"] <= 1.0
            assert (
                record["mean_closeness_mean"]
                <= record["mean_harmonic_closeness_mean"]
                <= 1.0
            )
            assert record["max_closeness_mean"] >= record["mean_closeness_mean"]

    def test_centrality_scenario_jobs_bit_identical(self):
        scenario = get_scenario("clique-temporal-centrality")
        serial = run_scenario(scenario, scale="quick", seed=13)
        parallel = run_scenario(scenario, scale="quick", seed=13, jobs=2)
        assert serial.to_records() == parallel.to_records()

    def test_centrality_metric_rejects_unknown_field(self):
        from repro.scenarios.metrics import METRICS, TrialContext
        from repro import complete_graph, normalized_urtn

        network = normalized_urtn(complete_graph(8, directed=True), seed=0)
        ctx = TrialContext(
            graph=network.graph,
            network=network,
            params={},
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ConfigurationError, match="betweenness"):
            METRICS["temporal_centrality"](ctx, {"fields": ["betweenness"]})

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(get_scenario("E1"), scale="galactic")

    def test_direct_mode_rejects_montecarlo_only_options(self):
        with pytest.raises(ConfigurationError):
            run_scenario(get_scenario("E6"), scale="quick", seed=1, shard_size=2)
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            run_scenario(
                get_scenario("E6"), scale="quick", seed=1, checkpoint_dir="ckpt"
            )
        with pytest.raises(ConfigurationError, match="progress"):
            run_scenario(
                get_scenario("E6"), scale="quick", seed=1, progress=print
            )

    def test_direct_points_are_picklable_engine_units(self):
        import pickle

        from repro.engine.executors import RunContext, run_unit
        from repro.scenarios.pipeline import DirectPoint
        from repro.utils.seeding import spawn_rngs

        scenario = get_scenario("E6")
        point = scenario.scale("quick").blocks[0].points()[0]
        quota = scenario.rngs_per_point
        unit = DirectPoint(0, scenario.metrics.metrics[0], point, spawn_rngs(2, quota))
        clone = pickle.loads(pickle.dumps(unit))
        result = run_unit(clone, RunContext(telemetry=True))
        reference = run_scenario(scenario, scale="quick", seed=2)
        assert result.value == reference.records[0]
        assert result.telemetry_state["counters"]["kernel.forward.sweeps"] > 0

    def test_direct_points_look_the_metric_up_when_they_run(self, monkeypatch):
        """A wrapper installed in the registry after import is what runs."""
        scenario = get_scenario("E6")
        name = scenario.metrics.metrics[0].metric
        reference = run_scenario(scenario, scale="quick", seed=2)
        original = DIRECT_METRICS[name]
        calls = []

        def traced(point, rngs, options):
            calls.append(dict(point))
            return original(point, rngs, options)

        monkeypatch.setitem(DIRECT_METRICS, name, traced)
        traced_run = run_scenario(scenario, scale="quick", seed=2)
        assert traced_run.records == reference.records
        assert len(calls) == len(reference.records)

    def test_direct_records_follow_point_order_whatever_the_completion_order(self):
        from repro.engine.executors import SerialExecutor, run_unit

        class LastFirstExecutor(SerialExecutor):
            def map(self, units, context):
                yield from reversed([run_unit(unit, context) for unit in units])

        scenario = get_scenario("E6")
        serial = run_scenario(scenario, scale="quick", seed=2)
        last_first = run_scenario(
            scenario, scale="quick", seed=2, executor=LastFirstExecutor()
        )
        assert len({str(record) for record in serial.records}) > 1
        assert last_first.records == serial.records

    def test_direct_mode_honours_explicit_executor(self):
        from repro.engine.executors import MultiprocessExecutor

        serial = run_scenario(get_scenario("E6"), scale="quick", seed=2)
        pooled = run_scenario(
            get_scenario("E6"),
            scale="quick",
            seed=2,
            executor=MultiprocessExecutor(2),
        )
        assert pooled.records == serial.records

    def test_sampling_families_are_deterministic_without_explicit_seed(self):
        spec = GraphFamilySpec("erdos_renyi", {"n": 20, "p": 0.3})
        a = build_graph(spec, {})
        from repro.scenarios.families import _cached_build

        _cached_build.cache_clear()
        b = build_graph(spec, {})
        assert a == b

    def test_single_sweep_accessor_guards_multi_block(self):
        result = run_scenario(get_scenario("E5"), scale="quick", seed=5)
        assert len(result.sweeps) == 2  # one block per star size
        with pytest.raises(ConfigurationError):
            _ = result.sweep


class TestWithAxes:
    def test_axis_override_replaces_and_moves_constants(self):
        scenario = get_scenario("er-fcase-reachability").with_axes(
            {"n": [24], "r": [1, 2]}, scale="quick"
        )
        block = scenario.scale("quick").blocks[0]
        assert block.axes["n"] == [24]
        assert block.axes["r"] == [1, 2]
        result = run_scenario(scenario, scale="quick", seed=1)
        assert len(result.to_records()) == 2

    def test_override_does_not_mutate_registry(self):
        before = get_scenario("er-fcase-reachability").to_json()
        get_scenario("er-fcase-reachability").with_axes({"n": [8]}, scale="quick")
        assert get_scenario("er-fcase-reachability").to_json() == before


class TestScenarioCli:
    def test_scenario_list(self, capsys):
        from repro.experiments.registry import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "hypercube-urtn-diameter" in out

    def test_scenario_run_writes_records(self, tmp_path, capsys):
        from repro.experiments.registry import main
        from repro.io.serialization import read_records_json

        records_path = tmp_path / "records.json"
        code = main(
            [
                "scenario", "run", "hypercube-urtn-diameter",
                "--scale", "quick", "--seed", "5",
                "--records", str(records_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hypercube-urtn-diameter" in out
        records = read_records_json(records_path)
        assert len(records) == 2

    def test_scenario_run_centrality_from_cli(self, tmp_path, capsys):
        from repro.experiments.registry import main
        from repro.io.serialization import read_records_json

        records_path = tmp_path / "centrality.json"
        code = main(
            [
                "scenario", "run", "clique-temporal-centrality",
                "--scale", "quick", "--seed", "5",
                "--records", str(records_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clique-temporal-centrality" in out
        records = read_records_json(records_path)
        assert len(records) == 2
        assert all("mean_closeness_mean" in record for record in records)

    def test_scenario_sweep_overrides_axes(self, capsys):
        from repro.experiments.registry import main

        code = main(
            [
                "scenario", "sweep", "er-fcase-reachability",
                "--scale", "quick", "--seed", "5",
                "--set", "n=24", "--set", "r=1,4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("er-fcase-reachability") >= 2

    def test_scenario_run_unknown_name_fails(self, capsys):
        from repro.experiments.registry import main

        assert main(["scenario", "run", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_sweep_malformed_set_fails(self, capsys):
        from repro.experiments.registry import main

        assert main(["scenario", "sweep", "E1", "--set", "nonsense"]) == 2
        assert "error" in capsys.readouterr().err

    def test_set_values_parse_booleans_ints_floats_and_strings(self):
        from repro.experiments.registry import _parse_axis_value

        assert _parse_axis_value("false") is False
        assert _parse_axis_value("True") is True
        assert _parse_axis_value("8") == 8
        assert _parse_axis_value("0.5") == 0.5
        assert _parse_axis_value("zipf") == "zipf"


class TestTrialContextAndMetricValidation:
    """Error paths of ``require_network``/``require_analysis`` and the
    metric-options validation messages."""

    @staticmethod
    def _context(network=None, graph=None, extras=None, metrics=None):
        from repro.scenarios.metrics import TrialContext

        return TrialContext(
            graph=graph,
            network=network,
            params={"n": 8},
            rng=np.random.default_rng(0),
            metrics=dict(metrics or {}),
            extras=dict(extras or {}),
        )

    @staticmethod
    def _clique_network(n=8, seed=0):
        from repro import complete_graph, normalized_urtn

        return normalized_urtn(complete_graph(n, directed=True), seed=seed)

    def test_require_network_error_names_metric_and_cause(self):
        ctx = self._context()
        with pytest.raises(ConfigurationError) as excinfo:
            ctx.require_network("strong_reachability")
        message = str(excinfo.value)
        assert "'strong_reachability'" in message
        assert "label model" in message

    def test_require_network_returns_the_sampled_network(self):
        network = self._clique_network()
        ctx = self._context(network=network)
        assert ctx.require_network("temporal_diameter") is network

    def test_require_analysis_propagates_missing_network_error(self):
        ctx = self._context()
        with pytest.raises(ConfigurationError, match="'distance_summary'"):
            ctx.require_analysis("distance_summary")
        assert ctx.analysis is None

    def test_every_network_metric_raises_without_network(self):
        network_metrics = (
            "distance_summary", "temporal_diameter", "ratio_to_log_n",
            "direct_wait_baseline", "theorem5_scaled_bound",
            "prefix_connectivity", "expansion_process", "flood_vs_phone_call",
            "flood_time", "strong_reachability", "total_labels",
        )
        for name in network_metrics:
            with pytest.raises(ConfigurationError):
                METRICS[name](self._context(), {})

    def test_distance_summary_unknown_field_message_lists_available(self):
        ctx = self._context(network=self._clique_network())
        with pytest.raises(ConfigurationError) as excinfo:
            METRICS["distance_summary"](ctx, {"fields": ["no_such_field"]})
        message = str(excinfo.value)
        assert "'no_such_field'" in message
        assert "temporal_diameter" in message and "reachable_fraction" in message

    def test_distance_summary_selects_exactly_requested_fields(self):
        ctx = self._context(network=self._clique_network())
        out = METRICS["distance_summary"](
            ctx, {"fields": ["temporal_radius", "temporally_connected"]}
        )
        assert set(out) == {"temporal_radius", "temporally_connected"}

    def test_mean_label_requires_distribution_extra(self):
        ctx = self._context(network=self._clique_network())
        with pytest.raises(ConfigurationError, match="distribution"):
            METRICS["mean_label"](ctx, {})

    def test_theorem7_audit_validates_rng_quota(self):
        rngs = list(np.random.default_rng(0).spawn(3))
        with pytest.raises(ConfigurationError, match="4 RNG streams"):
            DIRECT_METRICS["theorem7_por_audit"](
                {"family": "star", "n": 8, "trials": 2}, rngs, {}
            )
