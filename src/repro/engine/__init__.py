"""Parallel Monte-Carlo execution engine.

The paper's headline quantities (expected temporal diameter, price of
randomness, ER connectivity probabilities) are all estimated by repeated
independent trials — an embarrassingly parallel workload.  This subpackage
executes such trial budgets in deterministic shards:

* :mod:`repro.engine.sharding` — shard planning, per-trial seed streams (the
  determinism contract lives here) and the shard unit;
* :mod:`repro.engine.executors` — the :class:`Executor` protocol with serial
  and process-pool implementations, and :func:`run_unit`, the one worker
  entry that runs shards and direct-mode scenario points alike;
* :mod:`repro.engine.checkpoint` — crash/resume persistence of completed
  shards;
* :mod:`repro.engine.driver` — :func:`run_sharded`, the entry point that the
  Monte-Carlo runner delegates to.

See ``docs/parallel_engine.md`` for the architecture and the determinism
contract: for a fixed master seed the results are bit-identical across
``jobs`` counts, executors, and crash/resume boundaries.
"""

from .checkpoint import CheckpointStore
from .driver import EngineResult, ProgressCallback, run_sharded
from .executors import (
    Executor,
    MultiprocessExecutor,
    RunContext,
    SerialExecutor,
    UnitResult,
    WorkUnit,
    merge_telemetry,
    resolve_executor,
    run_unit,
)
from .sharding import (
    DEFAULT_MAX_SHARDS,
    SeedPlan,
    Shard,
    ShardResult,
    ShardWork,
    plan_shards,
)

__all__ = [
    "CheckpointStore",
    "EngineResult",
    "ProgressCallback",
    "run_sharded",
    "Executor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "resolve_executor",
    "RunContext",
    "WorkUnit",
    "UnitResult",
    "run_unit",
    "merge_telemetry",
    "DEFAULT_MAX_SHARDS",
    "Shard",
    "SeedPlan",
    "ShardWork",
    "ShardResult",
    "plan_shards",
]
