"""Deterministic shard planning for the parallel Monte-Carlo engine.

The determinism contract of the engine rests on two facts that this module
owns:

1. **The shard plan is a pure function of ``(budget, shard_size)``.**  The
   number of worker processes never changes how the trial budget is cut, so
   ``jobs=1`` and ``jobs=64`` execute exactly the same shards.
2. **Trial *i* always draws from child *i* of the master seed.**
   :class:`SeedPlan` spawns one ``SeedSequence`` child per trial (the same
   prefix ``spawn_rngs`` would produce for a sequential run), followed by one
   reservoir stream per shard and one merge stream — so sharded execution is
   bit-identical to the sequential runner, and streaming aggregation is
   deterministic regardless of worker count or completion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..utils.fingerprint import seed_fingerprint
from ..utils.seeding import SeedLike, derive_seed_sequence
from ..utils.validation import check_positive_int

__all__ = ["DEFAULT_MAX_SHARDS", "Shard", "plan_shards", "spawned_child", "SeedPlan"]

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
    """All RNG streams of one engine run, derived lazily from the master seed.

    Children of the master :class:`numpy.random.SeedSequence`, by index:

    * ``0 … budget-1`` — one stream per trial (identical to the prefix
      ``spawn_rngs(seed, budget)`` yields, so results match sequential runs);
    * ``budget … budget+num_shards-1`` — one reservoir stream per shard;
    * ``budget+num_shards`` — the driver's merge stream.
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

    def merge_rng(self) -> np.random.Generator:
        """The driver-side stream used to merge shard partials in index order."""
        return np.random.default_rng(self.child(self.budget + self.num_shards))

    def fingerprint(self) -> str:
        """Stable identifier of the master seed, used by checkpoint metadata."""
        return seed_fingerprint(self.sequence.entropy, self.spawn_key)
