"""The Monte-Carlo runner: repeated independent trials with seeded streams.

Every run is a fixed budget of trials, delegated to the parallel execution
engine (:mod:`repro.engine`): the budget is cut into deterministic shards,
executed by a pluggable :class:`repro.engine.executors.Executor` (in-process
by default, a process pool with ``jobs > 1``) and merged in shard-index
order.  For a fixed master seed the resulting :class:`TrialResult` is
bit-identical across ``jobs`` counts and executors — see
``docs/parallel_engine.md`` for the contract.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from ..engine.driver import ProgressCallback, run_sharded
from ..engine.executors import Executor, resolve_executor
from ..utils.logging import get_logger
from ..utils.seeding import SeedLike, spawn_rngs
from ..utils.validation import check_positive_int
from .experiment import Experiment
from .results import SweepResult, TrialResult
from .sweep import ParameterSweep

__all__ = ["MonteCarloRunner", "run_trials"]

_LOGGER = get_logger("montecarlo.runner")


def run_trials(
    experiment: Experiment,
    *,
    repetitions: int = 30,
    seed: SeedLike = None,
    jobs: int | None = None,
    executor: Executor | None = None,
    shard_size: int | None = None,
    checkpoint_dir: str | os.PathLike[str] | None = None,
    progress: ProgressCallback | None = None,
) -> TrialResult:
    """Run a fixed number of independent trials of an experiment.

    Thin convenience wrapper over :class:`MonteCarloRunner`.  ``jobs=4`` fans
    the trial budget out over four worker processes; results are
    bit-identical to ``jobs=1`` for the same seed.
    """
    runner = MonteCarloRunner(
        repetitions=repetitions,
        seed=seed,
        jobs=jobs,
        executor=executor,
        shard_size=shard_size,
        checkpoint_dir=checkpoint_dir,
        progress=progress,
    )
    return runner.run(experiment)


class MonteCarloRunner:
    """Runs experiments: repeated trials, independent RNG streams, aggregation.

    Parameters
    ----------
    repetitions:
        Trials per parameter point (default 30).
    seed:
        Master seed.  Each trial receives its own generator spawned from this
        seed, so results are reproducible and independent of execution order,
        shard layout and worker count.
    jobs / executor:
        Execution strategy: ``jobs=N`` with ``N > 1`` uses a process pool of
        ``N`` workers; an explicit :class:`repro.engine.executors.Executor`
        instance overrides it.  Defaults to in-process serial execution.
    shard_size:
        Trials per engine shard (default: an even cut into at most 16
        shards).  Affects scheduling granularity only; raw trial values are
        identical for any value.
    checkpoint_dir:
        Directory for crash/resume persistence of completed shards.
        ``run_sweep`` appends one subdirectory per sweep point.
    progress:
        Optional hook ``(completed_shards, total_shards, repetitions_done)``
        invoked as shards finish.
    """

    def __init__(
        self,
        *,
        repetitions: int = 30,
        seed: SeedLike = None,
        jobs: int | None = None,
        executor: Executor | None = None,
        shard_size: int | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        progress: ProgressCallback | None = None,
    ) -> None:
        self._repetitions = check_positive_int(repetitions, "repetitions")
        self._seed = seed
        self._executor = resolve_executor(executor, jobs)
        self._shard_size = (
            None if shard_size is None else check_positive_int(shard_size, "shard_size")
        )
        self._checkpoint_dir = checkpoint_dir
        self._progress = progress

    @property
    def repetitions(self) -> int:
        """Trials per parameter point."""
        return self._repetitions

    @property
    def executor(self) -> Executor:
        """The executor runs are dispatched to."""
        return self._executor

    def run(self, experiment: Experiment) -> TrialResult:
        """Run one experiment at its current parameter point."""
        result = run_sharded(
            experiment,
            budget=self._repetitions,
            seed=self._seed,
            executor=self._executor,
            shard_size=self._shard_size,
            checkpoint_dir=self._checkpoint_dir,
            progress=self._progress,
        )
        return TrialResult(
            experiment=experiment.name,
            parameters=dict(experiment.parameters),
            metrics=result.values,
            repetitions=result.repetitions,
        )

    def run_sweep(
        self,
        experiment: Experiment,
        sweep: ParameterSweep | Sequence[Mapping[str, object]],
    ) -> SweepResult:
        """Run the experiment at every parameter point of a sweep.

        Each point gets its own independent master seed derived from the
        runner seed so that adding or removing points does not perturb the
        other points' results.  The executor (and therefore ``jobs``) is
        shared across points and held for the whole sweep, so a process pool
        starts once, not once per point, and stops before this returns; with
        a ``checkpoint_dir`` every point persists its shards under a
        ``point-NNNN`` subdirectory.
        """
        points = list(sweep.points()) if isinstance(sweep, ParameterSweep) else list(sweep)
        result = SweepResult(experiment=experiment.name)
        point_seeds = spawn_rngs(self._seed, len(points))
        with self._executor:
            for position, (point, point_seed) in enumerate(zip(points, point_seeds)):
                configured = experiment.with_parameters(**dict(point))
                checkpoint_dir = self._checkpoint_dir
                if checkpoint_dir is not None:
                    checkpoint_dir = os.path.join(
                        os.fspath(checkpoint_dir), f"point-{position:04d}"
                    )
                runner = MonteCarloRunner(
                    repetitions=self._repetitions,
                    seed=point_seed,
                    executor=self._executor,
                    shard_size=self._shard_size,
                    checkpoint_dir=checkpoint_dir,
                    progress=self._progress,
                )
                result.add(runner.run(configured))
                _LOGGER.info(
                    "experiment %s: finished point %s", experiment.name, dict(point)
                )
        return result
