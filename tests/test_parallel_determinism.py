"""Determinism contract of the parallel engine: jobs-invariance and resume.

These tests pin the PR's acceptance criterion: for a fixed master seed the
Monte-Carlo results (every raw metric value, hence mean/std/min/max/count)
are bit-identical across ``jobs`` counts, serial vs multiprocess executors,
shard sizes, and crash/resume boundaries.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

import pytest

from repro.engine.driver import run_sharded
from repro.engine.executors import (
    MultiprocessExecutor,
    RunContext,
    SerialExecutor,
    UnitResult,
    WorkUnit,
    run_unit,
)
from repro.exceptions import CheckpointError
from repro.experiments.exp_er_connectivity import trial_er_connectivity
from repro.montecarlo.experiment import Experiment
from repro.montecarlo.runner import MonteCarloRunner, run_trials
from repro.montecarlo.sweep import ParameterSweep

#: A real (module-level, hence picklable) paper workload: G(n, p)
#: connectivity trials at modest size.
ER_EXPERIMENT = Experiment(
    name="E7-er-connectivity",
    trial=trial_er_connectivity,
    parameters={"n": 48, "multiplier": 1.0},
)


class _CrashingExecutor(SerialExecutor):
    """Runs units serially but dies after ``survive`` completions."""

    def __init__(self, survive: int) -> None:
        self._survive = survive

    def map(
        self, units: Sequence[WorkUnit], context: RunContext
    ) -> Iterator[UnitResult]:
        for completed, unit in enumerate(units):
            if completed >= self._survive:
                raise RuntimeError("simulated crash")
            yield run_unit(unit, context)


def _legacy_accumulators(values):
    """The ``accumulators`` entry of shard files written while the engine also
    streamed Welford moments and a 1024-slot reservoir per metric."""
    metrics = {}
    for name, column in values.items():
        count, mean, m2 = 0, 0.0, 0.0
        for value in column:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        metrics[name] = {
            "moments": {
                "count": count,
                "mean": mean,
                "m2": m2,
                "min": min(column),
                "max": max(column),
            },
            "reservoir": {"capacity": 1024, "seen": count, "items": list(column)},
        }
    return {"capacity": 1024, "metrics": metrics}


class TestJobsInvariance:
    def test_trial_results_identical_across_jobs(self):
        """ISSUE acceptance: jobs in {1, 2, 4} give bit-identical TrialResults."""
        reference = run_trials(ER_EXPERIMENT, repetitions=20, seed=2014, jobs=1)
        for jobs in (2, 4):
            result = run_trials(ER_EXPERIMENT, repetitions=20, seed=2014, jobs=jobs)
            assert result.metrics == reference.metrics, f"jobs={jobs} diverged"
            assert result.repetitions == reference.repetitions
            for metric in reference.metric_names():
                assert result.summary(metric) == reference.summary(metric)

    def test_serial_vs_multiprocess_executor_identical(self):
        serial = run_trials(ER_EXPERIMENT, repetitions=12, seed=7, executor=SerialExecutor())
        parallel = run_trials(
            ER_EXPERIMENT, repetitions=12, seed=7, executor=MultiprocessExecutor(3)
        )
        assert serial.metrics == parallel.metrics

    def test_raw_values_invariant_to_shard_size(self):
        a = run_trials(ER_EXPERIMENT, repetitions=15, seed=3, shard_size=1)
        b = run_trials(ER_EXPERIMENT, repetitions=15, seed=3, shard_size=7)
        assert a.metrics == b.metrics

    def test_matches_sequential_reference_semantics(self):
        """The engine path reproduces the historical sequential runner exactly."""
        from repro.utils.seeding import spawn_rngs

        engine = run_trials(ER_EXPERIMENT, repetitions=10, seed=11, jobs=2)
        sequential = [
            ER_EXPERIMENT.run_single(rng) for rng in spawn_rngs(11, 10)
        ]
        for metric in engine.metric_names():
            assert engine.values(metric) == [t[metric] for t in sequential]

    def test_sweep_identical_across_jobs(self):
        sweep = ParameterSweep({"multiplier": [0.5, 1.0, 2.0]}, constants={"n": 32})
        runner_serial = MonteCarloRunner(repetitions=8, seed=1)
        runner_parallel = MonteCarloRunner(repetitions=8, seed=1, jobs=2)
        serial = runner_serial.run_sweep(ER_EXPERIMENT, sweep)
        parallel = runner_parallel.run_sweep(ER_EXPERIMENT, sweep)
        assert [point.metrics for point in serial] == [point.metrics for point in parallel]


class TestCrashResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        """ISSUE acceptance: restart from a checkpoint equals the straight run."""
        uninterrupted = run_trials(ER_EXPERIMENT, repetitions=18, seed=42, shard_size=3)

        checkpoint = tmp_path / "ckpt"
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_trials(
                ER_EXPERIMENT,
                repetitions=18,
                seed=42,
                shard_size=3,
                executor=_CrashingExecutor(survive=2),
                checkpoint_dir=checkpoint,
            )
        # The crash left exactly the two completed shards on disk.
        assert len(list(checkpoint.glob("shard-*.json"))) == 2

        resumed = run_trials(
            ER_EXPERIMENT, repetitions=18, seed=42, shard_size=3, checkpoint_dir=checkpoint
        )
        assert resumed.metrics == uninterrupted.metrics
        assert resumed.repetitions == uninterrupted.repetitions

    def test_resume_from_shard_files_with_accumulators(self, tmp_path):
        """Shard files of the streaming-moments era still resume bit for bit."""
        uninterrupted = run_sharded(ER_EXPERIMENT, budget=18, seed=42, shard_size=3)
        run_sharded(
            ER_EXPERIMENT, budget=18, seed=42, shard_size=3, checkpoint_dir=tmp_path
        )
        for path in tmp_path.glob("shard-*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            legacy = {
                key: payload[key]
                for key in ("index", "start", "stop", "repetitions", "values")
            }
            legacy["accumulators"] = _legacy_accumulators(payload["values"])
            legacy["telemetry"] = payload["telemetry"]
            path.write_text(json.dumps(legacy), encoding="utf-8")
        # A crash before shards 1 and 4 finished.
        for index in (1, 4):
            (tmp_path / f"shard-{index:04d}.json").unlink()

        resumed = run_sharded(
            ER_EXPERIMENT, budget=18, seed=42, shard_size=3, checkpoint_dir=tmp_path
        )
        assert resumed.shards_resumed == 4 and resumed.shards_executed == 2
        assert resumed.values == uninterrupted.values
        assert resumed.repetitions == uninterrupted.repetitions

    def test_resume_skips_completed_shards(self, tmp_path):
        first = run_sharded(
            ER_EXPERIMENT, budget=12, seed=9, shard_size=4, checkpoint_dir=tmp_path
        )
        assert first.shards_executed == 3 and first.shards_resumed == 0
        second = run_sharded(
            ER_EXPERIMENT, budget=12, seed=9, shard_size=4, checkpoint_dir=tmp_path
        )
        assert second.shards_executed == 0 and second.shards_resumed == 3
        assert second.values == first.values

    def test_checkpoint_of_other_run_rejected(self, tmp_path):
        run_sharded(ER_EXPERIMENT, budget=12, seed=9, shard_size=4, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError):
            run_sharded(
                ER_EXPERIMENT, budget=12, seed=10, shard_size=4, checkpoint_dir=tmp_path
            )
        with pytest.raises(CheckpointError):
            run_sharded(
                ER_EXPERIMENT, budget=16, seed=9, shard_size=4, checkpoint_dir=tmp_path
            )

    def test_checkpoint_of_other_parameters_rejected(self, tmp_path):
        """Same experiment name at a different parameter point must not resume."""
        run_sharded(ER_EXPERIMENT, budget=12, seed=9, shard_size=4, checkpoint_dir=tmp_path)
        other = ER_EXPERIMENT.with_parameters(multiplier=2.0)
        with pytest.raises(CheckpointError):
            run_sharded(other, budget=12, seed=9, shard_size=4, checkpoint_dir=tmp_path)

    def test_sweep_checkpoints_per_point(self, tmp_path):
        sweep = ParameterSweep({"multiplier": [0.5, 2.0]}, constants={"n": 32})
        runner = MonteCarloRunner(repetitions=6, seed=4, checkpoint_dir=tmp_path)
        plain = MonteCarloRunner(repetitions=6, seed=4)
        checkpointed = runner.run_sweep(ER_EXPERIMENT, sweep)
        assert (tmp_path / "point-0000" / "meta.json").exists()
        assert (tmp_path / "point-0001" / "meta.json").exists()
        # Resuming the whole sweep from disk reproduces it bit for bit.
        resumed = runner.run_sweep(ER_EXPERIMENT, sweep)
        reference = plain.run_sweep(ER_EXPERIMENT, sweep)
        assert [p.metrics for p in resumed] == [p.metrics for p in checkpointed]
        assert [p.metrics for p in resumed] == [p.metrics for p in reference]
