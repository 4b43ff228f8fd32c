"""The engine driver: plan shards, execute them, merge the results.

:func:`run_sharded` is the single entry point the Monte-Carlo layer calls.
It owns the determinism contract end to end:

1. the shard plan is a pure function of ``(budget, shard_size)``;
2. trial ``i`` draws from seed child ``i`` regardless of which shard or
   worker runs it;
3. shard results are merged in ascending shard index, no matter in which
   order workers finish.

Together these make the per-trial values bit-identical across executors,
worker counts and crash/resume boundaries.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

from .. import telemetry
from ..exceptions import ConfigurationError
from ..utils.fingerprint import checkpoint_fingerprint
from ..utils.logging import get_logger
from ..utils.seeding import SeedLike
from ..utils.timing import Timer
from .checkpoint import CheckpointStore
from .executors import Executor, RunContext, merge_telemetry, resolve_executor
from .sharding import SeedPlan, ShardResult, ShardWork, plan_shards

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..montecarlo.experiment import Experiment

__all__ = ["EngineResult", "ProgressCallback", "run_sharded"]

_LOGGER = get_logger("engine.driver")

#: Signature of the progress hook: ``(completed_shards, total_shards,
#: repetitions_done)``, called after every shard completion (and once up
#: front when a resume skips already-completed shards).
ProgressCallback = Callable[[int, int, int], None]


@dataclass(frozen=True)
class EngineResult:
    """Merged outcome of a sharded run.

    Attributes
    ----------
    repetitions:
        Total number of trials executed (always the full budget).
    values:
        Raw per-trial metric arrays in trial order.
    shards_total / shards_executed / shards_resumed:
        Shard accounting; ``shards_resumed`` counts shards loaded from a
        checkpoint instead of executed.
    """

    repetitions: int
    values: Mapping[str, tuple[float, ...]]
    shards_total: int
    shards_executed: int
    shards_resumed: int


def run_sharded(
    experiment: "Experiment",
    *,
    budget: int,
    seed: SeedLike = None,
    executor: Executor | None = None,
    jobs: int | None = None,
    shard_size: int | None = None,
    checkpoint_dir: str | os.PathLike[str] | None = None,
    progress: ProgressCallback | None = None,
) -> EngineResult:
    """Execute ``budget`` independent trials of ``experiment`` in shards.

    Parameters
    ----------
    experiment:
        The experiment whose trial function is run once per repetition.
    budget:
        Exact number of trials to run.
    seed:
        Master seed; see :class:`repro.engine.sharding.SeedPlan` for how the
        per-trial streams are derived from it.
    executor / jobs:
        Execution strategy (see :func:`repro.engine.executors.resolve_executor`).
    shard_size:
        Trials per shard; defaults to an even cut into at most
        :data:`repro.engine.sharding.DEFAULT_MAX_SHARDS` shards.  Part of the
        checkpoint fingerprint; the trial values never depend on it.
    checkpoint_dir:
        Optional directory for crash/resume persistence; completed shards
        found there (for the *same* run fingerprint) are not re-executed.
    progress:
        Optional :data:`ProgressCallback` hook.
    """
    if checkpoint_dir is not None and seed is None:
        raise ConfigurationError(
            "checkpoint_dir requires an explicit master seed: with seed=None "
            "every process start draws fresh OS entropy, so a resumed run "
            "could never reproduce the checkpointed trial streams"
        )
    shards = plan_shards(budget, shard_size=shard_size)
    seeds = SeedPlan(seed, budget, len(shards))
    chosen = resolve_executor(executor, jobs)
    recs = telemetry.active()
    context = RunContext.snapshot()

    completed: dict[int, ShardResult] = {}
    store: CheckpointStore | None = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        load_start = time.perf_counter()
        completed = store.initialize(
            checkpoint_fingerprint(
                experiment=experiment.name,
                parameters=experiment.parameters,
                budget=budget,
                shard_size=shards[0].size,
                num_shards=len(shards),
                seed=seeds.fingerprint(),
            )
        )
        if recs:
            load_ms = (time.perf_counter() - load_start) * 1e3
            for rec in recs:
                rec.observe_ms("engine.checkpoint_load_ms", load_ms)

    resumed = len(completed)
    pending = [
        ShardWork(
            experiment=experiment,
            shard=shard,
            master_entropy=seeds.entropy,
            master_spawn_key=seeds.spawn_key,
        )
        for shard in shards
        if shard.index not in completed
    ]

    done = resumed
    repetitions_done = sum(result.repetitions for result in completed.values())
    if resumed:
        if progress is not None:
            progress(done, len(shards), repetitions_done)
        for rec in recs:
            rec.counter("engine.shards_resumed", resumed)

    with Timer(experiment.name) as timer:
        for unit in chosen.map(pending, context):
            result = replace(unit.value, telemetry_state=unit.telemetry_state)
            completed[result.index] = result
            if store is not None:
                save_start = time.perf_counter()
                store.save(result)
                if recs:
                    save_ms = (time.perf_counter() - save_start) * 1e3
                    for rec in recs:
                        rec.observe_ms("engine.checkpoint_save_ms", save_ms)
            done += 1
            repetitions_done += result.repetitions
            # The progress event, mirrored as a counter for recorders; the
            # callback itself is untouched.
            for rec in recs:
                rec.counter("engine.shards_completed")
            if progress is not None:
                progress(done, len(shards), repetitions_done)
    _LOGGER.debug(
        "experiment %s: %d shard(s) (%d resumed) on %r in %s",
        experiment.name,
        len(shards),
        resumed,
        chosen,
        timer,
    )
    for rec in recs:
        rec.observe_ms("engine.run_ms", timer.elapsed * 1e3)

    # Merge in ascending shard index — never in completion order.  Resumed
    # shards contribute the telemetry they recorded before the crash.
    ordered = [completed[shard.index] for shard in shards]
    merge_telemetry(result.telemetry_state for result in ordered)
    values: dict[str, list[float]] = {}
    for result in ordered:
        for name, column in result.values.items():
            values.setdefault(name, []).extend(column)
    return EngineResult(
        repetitions=sum(result.repetitions for result in ordered),
        values={name: tuple(column) for name, column in values.items()},
        shards_total=len(shards),
        shards_executed=len(shards) - resumed,
        shards_resumed=resumed,
    )
