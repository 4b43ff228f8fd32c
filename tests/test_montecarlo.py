"""Tests for the Monte-Carlo engine: experiments, runner, sweeps, results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.montecarlo.experiment import Experiment
from repro.montecarlo.results import SweepResult, TrialResult, results_to_records
from repro.montecarlo.runner import MonteCarloRunner, run_trials
from repro.montecarlo.statistics import summarize
from repro.montecarlo.sweep import ParameterSweep, sweep_grid


def _coin_trial(params, rng):
    """Bernoulli(p) metric plus a normal metric — a tiny synthetic experiment."""
    p = params.get("p", 0.5)
    return {
        "heads": float(rng.random() < p),
        "noise": float(rng.normal(loc=params.get("mu", 0.0))),
    }


class TestExperiment:
    def test_requires_name(self):
        with pytest.raises(ConfigurationError):
            Experiment(name="", trial=_coin_trial)

    def test_requires_callable(self):
        with pytest.raises(ConfigurationError):
            Experiment(name="x", trial="not-callable")  # type: ignore[arg-type]

    def test_with_parameters_merges(self):
        exp = Experiment(name="x", trial=_coin_trial, parameters={"p": 0.5, "mu": 1.0})
        updated = exp.with_parameters(p=0.9)
        assert updated.parameters == {"p": 0.9, "mu": 1.0}
        assert exp.parameters["p"] == 0.5  # original untouched

    def test_run_single_validates_output(self):
        bad = Experiment(name="bad", trial=lambda params, rng: {})
        with pytest.raises(ConfigurationError):
            bad.run_single(np.random.default_rng(0))

    def test_run_single_rejects_non_numeric(self):
        bad = Experiment(name="bad", trial=lambda params, rng: {"x": "oops"})
        with pytest.raises(ConfigurationError):
            bad.run_single(np.random.default_rng(0))

    def test_run_single_returns_floats(self):
        exp = Experiment(name="coin", trial=_coin_trial)
        metrics = exp.run_single(np.random.default_rng(0))
        assert set(metrics) == {"heads", "noise"}
        assert all(isinstance(v, float) for v in metrics.values())


class TestRunner:
    def test_fixed_budget_runs_exact_count(self):
        result = run_trials(Experiment(name="coin", trial=_coin_trial), repetitions=17, seed=0)
        assert result.repetitions == 17
        assert len(result.values("heads")) == 17

    def test_reproducible_across_runs(self):
        exp = Experiment(name="coin", trial=_coin_trial)
        a = run_trials(exp, repetitions=10, seed=5)
        b = run_trials(exp, repetitions=10, seed=5)
        assert a.values("noise") == b.values("noise")

    def test_different_seeds_differ(self):
        exp = Experiment(name="coin", trial=_coin_trial)
        a = run_trials(exp, repetitions=10, seed=1)
        b = run_trials(exp, repetitions=10, seed=2)
        assert a.values("noise") != b.values("noise")

    def test_estimates_are_sensible(self):
        exp = Experiment(name="coin", trial=_coin_trial, parameters={"p": 0.8})
        result = run_trials(exp, repetitions=400, seed=3)
        assert result.mean("heads") == pytest.approx(0.8, abs=0.08)

    def test_repetitions_validated(self):
        assert MonteCarloRunner(repetitions=7).repetitions == 7
        with pytest.raises(ValueError):
            MonteCarloRunner(repetitions=0)

    def test_summary_is_the_summary_of_every_trial_value(self):
        exp = Experiment(name="coin", trial=_coin_trial, parameters={"mu": 2.0})
        result = run_trials(exp, repetitions=40, seed=9)
        for metric in result.metric_names():
            assert len(result.values(metric)) == 40
            assert result.summary(metric) == summarize(result.values(metric))
            assert result.summary(metric, confidence=0.8) == summarize(
                result.values(metric), confidence=0.8
            )

    def test_run_sweep_covers_all_points(self):
        runner = MonteCarloRunner(repetitions=5, seed=0)
        sweep = ParameterSweep({"p": [0.1, 0.9]})
        result = runner.run_sweep(Experiment(name="coin", trial=_coin_trial), sweep)
        assert len(result) == 2
        assert result.column("p") == [0.1, 0.9]
        means = result.metric_means("heads")
        assert means[1] >= means[0]

    def test_progress_hook_reports_repetitions(self):
        seen: list[tuple[int, int, int]] = []
        run_trials(
            Experiment(name="coin", trial=_coin_trial),
            repetitions=12,
            seed=0,
            shard_size=4,
            progress=lambda done, total, reps: seen.append((done, total, reps)),
        )
        assert seen == [(1, 3, 4), (2, 3, 8), (3, 3, 12)]


class TestSweep:
    def test_cartesian_size(self):
        sweep = ParameterSweep({"a": [1, 2, 3], "b": [10, 20]})
        assert len(sweep) == 6
        assert len(list(sweep.points())) == 6

    def test_constants_merged(self):
        sweep = ParameterSweep({"a": [1, 2]}, constants={"c": 7})
        assert all(point["c"] == 7 for point in sweep)

    def test_scalar_promoted_to_singleton(self):
        sweep = ParameterSweep({"a": 5, "b": [1, 2]})
        assert len(sweep) == 2

    def test_conflicting_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSweep({"a": [1]}, constants={"a": 2})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSweep({})
        with pytest.raises(ConfigurationError):
            ParameterSweep({"a": []})

    def test_restrict(self):
        sweep = ParameterSweep({"a": [1, 2, 3], "b": [4, 5]})
        restricted = sweep.restrict(a=[2])
        assert len(restricted) == 2
        with pytest.raises(ConfigurationError):
            sweep.restrict(z=[1])

    def test_sweep_grid_helper(self):
        assert len(sweep_grid(n=[4, 8], r=[1, 2, 3])) == 6

    def test_run_sweep_runs_plain_point_lists(self):
        runner = MonteCarloRunner(repetitions=3, seed=0)
        experiment = Experiment(name="coin", trial=_coin_trial)
        full = ParameterSweep({"p": [0.1, 0.5, 0.9]}, constants={"mu": 1.0})
        points = list(full.points())
        results = [runner.run_sweep(experiment, part) for part in (points[:2], points[2:])]
        assert [len(r) for r in results] == [2, 1]
        assert results[0].column("p") == [0.1, 0.5]
        assert results[1].column("p") == [0.9]
        assert results[1].column("mu") == [1.0]
        # A list of the sweep's points runs exactly like the sweep itself.
        assert (
            runner.run_sweep(experiment, points).as_records()
            == runner.run_sweep(experiment, full).as_records()
        )


class TestResults:
    def _make_result(self) -> TrialResult:
        return TrialResult(
            experiment="toy",
            parameters={"n": 4},
            metrics={"value": (1.0, 2.0, 3.0)},
            repetitions=3,
        )

    def test_summary_and_mean(self):
        result = self._make_result()
        assert result.mean("value") == pytest.approx(2.0)
        stats = result.summary("value")
        assert stats.count == 3
        assert stats.minimum == 1.0 and stats.maximum == 3.0

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            self._make_result().values("missing")

    def test_as_record_flattens(self):
        record = self._make_result().as_record()
        assert record["param_n"] == 4
        assert record["value_mean"] == pytest.approx(2.0)
        assert "value_ci_low" in record

    def test_sweep_result_add_checks_experiment_name(self):
        sweep = SweepResult(experiment="other")
        with pytest.raises(ValueError):
            sweep.add(self._make_result())

    def test_results_to_records_accepts_both(self):
        result = self._make_result()
        sweep = SweepResult(experiment="toy", points=[result])
        assert results_to_records([result]) == results_to_records(sweep)

    def test_metric_names_union(self):
        sweep = SweepResult(experiment="toy", points=[self._make_result()])
        assert sweep.metric_names() == ["value"]
