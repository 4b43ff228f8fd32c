"""Deterministic shards: the plan, the seed streams and the shard unit.

The determinism contract of the engine rests on two facts that this module
owns:

1. **The shard plan is a pure function of ``(budget, shard_size)``.**  The
   number of worker processes never changes how the trial budget is cut, so
   ``jobs=1`` and ``jobs=64`` execute exactly the same shards.
2. **Trial *i* always draws from child *i* of the master seed.**
   :class:`SeedPlan` derives one ``SeedSequence`` child per trial (the same
   prefix ``spawn_rngs`` would produce for a sequential run), so sharded
   execution is bit-identical to the sequential runner regardless of worker
   count or completion order.

:class:`ShardWork` is the unit an executor runs for one shard;
:class:`ShardResult` is what the driver keeps of it and the checkpoint store
persists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from .. import telemetry
from ..utils.fingerprint import seed_fingerprint
from ..utils.seeding import SeedLike, derive_seed_sequence
from ..utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..montecarlo.experiment import Experiment

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "Shard",
    "plan_shards",
    "spawned_child",
    "SeedPlan",
    "ShardWork",
    "ShardResult",
]

#: Default ceiling on the number of shards in a plan.  Small enough that the
#: per-shard scheduling overhead is negligible, large enough that a pool of
#: up to ~8 workers keeps busy with good load balance.
DEFAULT_MAX_SHARDS = 16


@dataclass(frozen=True, slots=True)
class Shard:
    """A contiguous block of trial indices ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of trials in the shard."""
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"shard {self.index} has an invalid trial range "
                f"[{self.start}, {self.stop})"
            )


def plan_shards(budget: int, *, shard_size: int | None = None) -> list[Shard]:
    """Partition ``budget`` trials into contiguous shards.

    The plan depends only on ``budget`` and ``shard_size`` — never on the
    number of workers.  With the default ``shard_size`` the plan has at most
    :data:`DEFAULT_MAX_SHARDS` shards, sized within one trial of each other.
    """
    budget = check_positive_int(budget, "budget")
    if shard_size is None:
        shard_size = max(1, math.ceil(budget / DEFAULT_MAX_SHARDS))
    else:
        shard_size = check_positive_int(shard_size, "shard_size")
    shards: list[Shard] = []
    start = 0
    while start < budget:
        stop = min(start + shard_size, budget)
        shards.append(Shard(index=len(shards), start=start, stop=stop))
        start = stop
    return shards


def spawned_child(
    entropy: object, spawn_key: tuple[int, ...], index: int
) -> np.random.SeedSequence:
    """Reconstruct child ``index`` of a master seed without spawning siblings.

    ``SeedSequence.spawn`` defines child ``i`` as the sequence with the
    parent's entropy and ``spawn_key + (i,)``; building it directly keeps both
    the driver and the workers O(1) in the trial budget — no million-entry
    child list is materialised, and a :class:`ShardWork` ships just the master
    identity instead of per-trial ``SeedSequence`` objects.
    """
    return np.random.SeedSequence(entropy, spawn_key=(*spawn_key, index))


class SeedPlan:
    """The trial streams of one engine run, derived lazily from the master seed.

    Child ``i`` of the master :class:`numpy.random.SeedSequence` seeds trial
    ``i`` for ``i`` in ``0 … budget-1`` — the prefix ``spawn_rngs(seed,
    budget)`` yields, so results match sequential runs.
    """

    __slots__ = ("sequence", "budget", "num_shards")

    def __init__(self, seed: SeedLike, budget: int, num_shards: int) -> None:
        self.budget = check_positive_int(budget, "budget")
        self.num_shards = check_positive_int(num_shards, "num_shards")
        self.sequence = derive_seed_sequence(seed)

    @property
    def entropy(self) -> object:
        """Master entropy (together with :attr:`spawn_key`, the seed identity)."""
        return self.sequence.entropy

    @property
    def spawn_key(self) -> tuple[int, ...]:
        """Master spawn key."""
        return tuple(self.sequence.spawn_key)

    def child(self, index: int) -> np.random.SeedSequence:
        """Child ``index`` of the master seed (see the class docstring)."""
        return spawned_child(self.entropy, self.spawn_key, index)

    def trial_seeds(self, shard: Shard) -> tuple[np.random.SeedSequence, ...]:
        """Per-trial seed sequences of one shard (trial ``i`` → child ``i``)."""
        return tuple(self.child(i) for i in range(shard.start, shard.stop))

    def fingerprint(self) -> str:
        """Stable identifier of the master seed, used by checkpoint metadata."""
        return seed_fingerprint(self.sequence.entropy, self.spawn_key)


@dataclass(frozen=True)
class ShardWork:
    """The unit an executor runs for one shard: its trials, in order.

    Workers reconstruct the per-trial streams from ``(master_entropy,
    master_spawn_key)`` via :func:`spawned_child`, so the payload shipped per
    shard is O(1) in both the shard size and the total budget.
    ``experiment.trial`` must be picklable (a module-level function) for the
    multiprocess executor; closures only work with the serial executor.
    """

    experiment: "Experiment"
    shard: Shard
    master_entropy: object
    master_spawn_key: tuple[int, ...]

    @property
    def index(self) -> int:
        """The shard index."""
        return self.shard.index

    def run(self) -> "ShardResult":
        """Run every trial of the shard, in trial order, as one batch.

        :meth:`Experiment.run_batch
        <repro.montecarlo.experiment.Experiment.run_batch>` gets the
        shard's generators, trial ``i``'s from child ``i``, built as it
        reads them.  The result carries no telemetry state;
        :func:`run_unit` returns that beside it, and the driver attaches it.
        """
        recs = telemetry.active()
        start = time.perf_counter() if recs else 0.0
        values: dict[str, list[float]] = {}
        rngs = (
            np.random.default_rng(
                spawned_child(self.master_entropy, self.master_spawn_key, trial_index)
            )
            for trial_index in range(self.shard.start, self.shard.stop)
        )
        for metrics in self.experiment.run_batch(rngs):
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        if recs:
            shard_ms = (time.perf_counter() - start) * 1e3
            for rec in recs:
                rec.counter("engine.shards")
                rec.counter("engine.trials", self.shard.size)
                rec.observe_ms("engine.shard_ms", shard_ms)
        return ShardResult(
            index=self.shard.index,
            start=self.shard.start,
            stop=self.shard.stop,
            repetitions=self.shard.size,
            values={name: tuple(column) for name, column in values.items()},
        )


@dataclass(frozen=True)
class ShardResult:
    """One completed shard: what the driver merges and a checkpoint stores."""

    index: int
    start: int
    stop: int
    repetitions: int
    #: Per-metric trial values, in trial order.
    values: Mapping[str, tuple[float, ...]]
    #: The shard's telemetry state (counters + timing moments), or ``None``
    #: when the run had telemetry off.  Merged by the driver in ascending
    #: shard index.
    telemetry_state: Mapping[str, Any] | None = None

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable representation (the checkpoint on-disk format)."""
        return {
            "index": self.index,
            "start": self.start,
            "stop": self.stop,
            "repetitions": self.repetitions,
            "values": {name: list(column) for name, column in self.values.items()},
            "telemetry": (
                dict(self.telemetry_state)
                if self.telemetry_state is not None
                else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ShardResult":
        """Rebuild from a :meth:`to_payload` dictionary.

        Older checkpoints load too: those written before telemetry existed
        lack the ``telemetry`` key (``telemetry_state=None``), and the
        ``accumulators`` entry of those written with streaming moments is
        ignored.
        """
        return cls(
            index=int(payload["index"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
            repetitions=int(payload["repetitions"]),
            values={
                name: tuple(float(x) for x in column)
                for name, column in payload["values"].items()
            },
            telemetry_state=payload.get("telemetry"),
        )
