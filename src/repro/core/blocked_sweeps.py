"""Out-of-core blocked sweeps: all-pairs summaries for ``n ≫ 10⁴``.

:func:`repro.core.journeys.earliest_arrival_matrix` materializes the full
``(sources × vertices)`` arrival state, which caps instance size at what fits
in RAM — an ``n = 20 000`` dense matrix is already 3.2 GB, an ``n = 10⁶`` one
is 8 TB.  The paper's asymptotic quantities (temporal diameter, reachable
fraction, distance moments) are *reductions* of that matrix, and every one of
them decomposes over row blocks.  This module exploits that: the sweep is
tiled over blocks of ``tile_size`` sources (forward) or targets (reverse),
each tile runs through the ordinary sweep kernel
(:class:`repro.core.kernels.NumpyBackend`) and asks it only for its packed
``reached`` bitset, the per-group
settle counts and each column's last settling label.  Those are folded into
a mergeable :class:`BlockedSummaryAccumulator` with no ``int64`` tile.
Peak memory is ``O(n · tile_size)`` bits instead of ``O(n²)`` words, while
every reported number stays **exact** (not sampled, not approximate) and
bit-identical to the dense path wherever the dense path can run at all —
the ``n ≤ 512`` pins are the cross-validation oracle for this engine
(``tests/test_blocked_sweeps.py``).

Exactness and order invariance
------------------------------
Temporal distances are integers, so the accumulator keeps its moment state in
**exact integer arithmetic** (:class:`ExactDistanceMoments`: count, Σδ, Σδ²
as Python ints, plus min/max).  Merging tile partials is therefore associative
and commutative *exactly* — any permutation or partition of the tiles merges
to the same state, which the hypothesis suite pins
(``tests/test_property_blocked_sweeps.py``).  The derived ``mean`` is the
correctly-rounded float of the exact rational, which reproduces the dense
path's ``numpy.mean`` bit for bit whenever the distance sum is below
``2**53`` (always true at the pinned scales; beyond it the streamed value is
the *more* accurate of the two).

Degenerate conventions match the dense path exactly (pinned by a regression
test): on a fully-unreachable instance the summary reports
``diameter = radius =`` :data:`~repro.types.UNREACHABLE`,
``average_distance = nan`` (never a 0/0 crash) and
``reachable_fraction = 0.0``; ``n <= 1`` reports ``(0, 0, 0.0, 1.0)``.

Spilling
--------
Callers that *do* need row access afterwards can pass ``spill_path``: each
tile then also asks the kernel for its arrivals and writes those distance
rows into a ``.npy``-format ``numpy.memmap`` before dropping them, so the
full matrix lands on disk (reload it later with
``numpy.load(path, mmap_mode="r")``) while resident memory stays bounded.
The summary comes from the same fold either way.

Telemetry
---------
With a :mod:`repro.telemetry` recorder active, every tile emits the
``blocked.tiles`` / ``blocked.rows`` counters and a ``blocked.tile_ms``
timing; spilling adds ``blocked.spill_bytes``.  All are ordinary mergeable
counters, so ``--jobs N`` shard runs report the same totals as serial runs.

Composition with the engine: tiles run *within* a shard — the parallel
engine's ``--jobs N`` fans trials out across worker processes as before, and
each worker streams its own trials' tiles, so shard-level parallelism and
tile-level memory bounding compose.  The ambient tile size (the CLI's
``--tile-size`` flag) ships to spawned workers in the run's context.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..telemetry import active as _telemetry_active
from ..types import UNREACHABLE
from ..utils.validation import check_positive_int
from .distances import DistanceSummary, summary_of_distance_matrix
from .journeys import SweepOutputs, _sweep
from .temporal_graph import TemporalGraph

__all__ = [
    "DEFAULT_TILE_SIZE",
    "BlockedSweepResult",
    "BlockedSummaryAccumulator",
    "ExactDistanceMoments",
    "blocked_sweep_summary",
    "default_tile_size",
    "resolve_tile_size",
    "set_default_tile_size",
    "streamed_distance_summary",
    "streamed_reachable_fraction",
    "summary_of_distance_matrix",
    "tile_size_scope",
]

#: Tile width used when neither the call nor the process names one.  A
#: tile's state is its packed ``reached`` bitset, ``n · ⌈width/64⌉ · 8``
#: bytes: 320 KB at ``n = 10 000``, 32 MB at ``n = 10⁶`` — orders of
#: magnitude below the dense ``O(n²)`` matrix.
DEFAULT_TILE_SIZE = 256

#: Directions a blocked sweep can run in.
_DIRECTIONS = ("forward", "reverse")

#: The process-wide tile-size default installed by :func:`set_default_tile_size`
#: (the ``--tile-size`` CLI flag sets this); ``None`` = unset.
_default_tile_size: int | None = None


def _check_tile_size(size: int) -> int:
    """Validate a tile size, raising the CLI-friendly ConfigurationError."""
    try:
        return check_positive_int(size, "tile_size")
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None


def default_tile_size() -> int | None:
    """The process-wide tile-size default (``None`` when unset)."""
    return _default_tile_size


def set_default_tile_size(size: int | None) -> int | None:
    """Install ``size`` as the process-wide tile size; returns the previous one.

    ``None`` clears the default.  Besides fixing what ``tile_size=None``
    resolves to, an installed default switches the ``distance_summary``
    scenario metric onto the blocked path (see
    :mod:`repro.scenarios.metrics`), which is how the ``--tile-size`` CLI
    flag turns a whole run out-of-core.
    """
    global _default_tile_size
    if size is not None:
        size = _check_tile_size(size)
    previous = _default_tile_size
    _default_tile_size = size
    return previous


@contextmanager
def tile_size_scope(size: int | None) -> Iterator[None]:
    """Temporarily install ``size`` as the process-wide tile size.

    ``None`` is a no-op scope (keeps the current default), so engine workers
    can apply a run's snapshot unconditionally.
    """
    if size is None:
        yield
        return
    previous = set_default_tile_size(size)
    try:
        yield
    finally:
        set_default_tile_size(previous)


def resolve_tile_size(tile_size: int | None, n: int) -> int:
    """The tile width a blocked sweep should actually use.

    Resolution order: the explicit ``tile_size`` argument, then the process
    default installed by :func:`set_default_tile_size`, then
    :data:`DEFAULT_TILE_SIZE`.  The result is clamped to ``[1, max(n, 1)]`` —
    a tile wider than the instance is simply one tile, so ``tile_size >= n``
    degrades gracefully to a single dense-width sweep.
    """
    if tile_size is None:
        tile_size = _default_tile_size
    if tile_size is None:
        tile_size = DEFAULT_TILE_SIZE
    tile_size = _check_tile_size(tile_size)
    return max(1, min(tile_size, max(n, 1)))


def _block_of_counts(
    values: Sequence[int], counts: Sequence[int]
) -> tuple[int, int, int, int | None, int | None]:
    """``(count, Σδ, Σδ², min, max)`` of distinct distances ``values``, each
    seen ``counts`` times.  Both hold Python ints, so every sum is exact at
    any label scale."""
    pairs = [(value, count) for value, count in zip(values, counts) if count]
    if not pairs:
        return 0, 0, 0, None, None
    return (
        sum(count for _, count in pairs),
        sum(value * count for value, count in pairs),
        sum(value * value * count for value, count in pairs),
        min(value for value, _ in pairs),
        max(value for value, _ in pairs),
    )


class ExactDistanceMoments:
    """Streaming distance moments in exact integer arithmetic.

    The integer state (count, Σδ, Σδ² as arbitrary-precision Python ints,
    running min/max) makes accumulation and :meth:`merge` exactly associative
    and commutative: any partition of the distance stream into tiles, merged
    in any order, yields the same state bit for bit — the property a
    floating-point Chan merge cannot offer.  The float views (:attr:`mean`,
    :attr:`variance`) are correctly rounded from the exact rationals.
    """

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.minimum: int | None = None
        self.maximum: int | None = None

    def add_block(
        self,
        count: int,
        total: int,
        total_sq: int,
        minimum: int | None,
        maximum: int | None,
    ) -> None:
        """Fold one pre-reduced block of observations into the state."""
        if count == 0:
            return
        self.count += int(count)
        self.total += int(total)
        self.total_sq += int(total_sq)
        if minimum is not None:
            self.minimum = minimum if self.minimum is None else min(self.minimum, minimum)
        if maximum is not None:
            self.maximum = maximum if self.maximum is None else max(self.maximum, maximum)

    def add_values(self, values: np.ndarray) -> None:
        """Consume a 1-D integer array of distances."""
        values, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
        self.add_block(*_block_of_counts(values.tolist(), counts.tolist()))

    def merge(self, other: "ExactDistanceMoments") -> None:
        """Fold another partial into this one (exact, order-invariant)."""
        self.add_block(
            other.count, other.total, other.total_sq, other.minimum, other.maximum
        )

    @property
    def mean(self) -> float:
        """Correctly-rounded mean distance (``nan`` while empty)."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Unbiased (``ddof=1``) sample variance; 0.0 with fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        exact = Fraction(self.total_sq) - Fraction(self.total * self.total, self.count)
        return float(max(exact / (self.count - 1), Fraction(0)))

    def to_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (Python ints are arbitrary precision)."""
        return {
            "count": self.count,
            "total": self.total,
            "total_sq": self.total_sq,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ExactDistanceMoments":
        """Rebuild from a :meth:`to_state` snapshot."""
        moments = cls()
        moments.count = int(state["count"])
        moments.total = int(state["total"])
        moments.total_sq = int(state["total_sq"])
        moments.minimum = None if state["min"] is None else int(state["min"])
        moments.maximum = None if state["max"] is None else int(state["max"])
        return moments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactDistanceMoments):
            return NotImplemented
        return self.to_state() == other.to_state()

    def __repr__(self) -> str:
        return (
            f"ExactDistanceMoments(count={self.count}, mean={self.mean:.6g}, "
            f"min={self.minimum}, max={self.maximum})"
        )


class BlockedSummaryAccumulator:
    """Mergeable reduction state of a blocked all-pairs distance sweep.

    One accumulator absorbs tiles of distance rows (:meth:`add_tile`) and/or
    other accumulators (:meth:`merge`); at the end :meth:`summary` yields the
    same :class:`~repro.core.distances.DistanceSummary` the dense path
    computes from the full matrix.  All scalar state is exact-integer, and
    the one vector (:attr:`reach_counts`, the per-column in-reach partial
    feeding the centrality family's ``reach_counts``) merges by addition, so
    the whole object is order- and partition-invariant.
    """

    __slots__ = (
        "n",
        "rows",
        "reachable_pairs",
        "moments",
        "diameter",
        "radius",
        "reach_counts",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"vertex count must be non-negative, got {n}")
        self.n = int(n)
        #: Number of distance rows absorbed so far.
        self.rows = 0
        #: Ordered pairs ``s != t`` with a journey, among absorbed rows.
        self.reachable_pairs = 0
        #: Exact moments of the off-diagonal reachable distances.
        self.moments = ExactDistanceMoments()
        #: Running max/min of the per-row eccentricities (``None`` while empty).
        self.diameter: int | None = None
        self.radius: int | None = None
        #: Per-column count of rows that reach the column (diagonal excluded).
        self.reach_counts = np.zeros(self.n, dtype=np.int64)

    def add_tile(self, row_indices: np.ndarray, tile: np.ndarray) -> np.ndarray:
        """Fold one ``(k, n)`` block of distance rows into the state.

        ``row_indices[i]`` is the vertex whose distance row ``tile[i]`` is —
        needed to exclude the diagonal entry from the pair statistics, exactly
        as the dense path does.  Returns the per-row eccentricities (the row
        maxima, unreachable entries included), which the caller may keep; the
        tile itself can be dropped afterwards.  :func:`blocked_sweep_summary`
        folds its tiles from the sweep's settle counts instead, without an
        ``int64`` tile; both folds are exact at any label scale.
        """
        row_indices = np.asarray(row_indices, dtype=np.int64)
        tile = np.asarray(tile, dtype=np.int64)
        k = row_indices.size
        if tile.shape != (k, self.n):
            raise ConfigurationError(
                f"tile shape {tile.shape} does not match "
                f"({k} rows, n={self.n} vertices)"
            )
        if k == 0:
            return np.empty(0, dtype=np.int64)
        eccentricities = tile.max(axis=1)
        reachable = tile < UNREACHABLE
        reachable[np.arange(k), row_indices] = False
        values, counts = np.unique(tile[reachable], return_counts=True)
        self._absorb(
            eccentricities,
            values.tolist(),
            counts.tolist(),
            np.count_nonzero(reachable, axis=0),
        )
        return eccentricities

    def _absorb(
        self,
        eccentricities: np.ndarray,
        values: Sequence[int],
        counts: Sequence[int],
        reach_counts: np.ndarray,
    ) -> None:
        """Fold one tile's reductions: its rows' eccentricities, the distinct
        off-diagonal reachable distances with their counts, and its per-column
        reach counts."""
        self.rows += eccentricities.size
        if self.n > 1:
            tile_diameter = int(eccentricities.max())
            tile_radius = int(eccentricities.min())
            self.diameter = (
                tile_diameter if self.diameter is None else max(self.diameter, tile_diameter)
            )
            self.radius = (
                tile_radius if self.radius is None else min(self.radius, tile_radius)
            )
        block = _block_of_counts(values, counts)
        self.reachable_pairs += block[0]
        self.moments.add_block(*block)
        self.reach_counts += reach_counts

    def merge(self, other: "BlockedSummaryAccumulator") -> None:
        """Fold another accumulator into this one (exact, order-invariant)."""
        if other.n != self.n:
            raise ConfigurationError(
                f"cannot merge accumulators over n={self.n} and n={other.n}"
            )
        self.rows += other.rows
        self.reachable_pairs += other.reachable_pairs
        self.moments.merge(other.moments)
        for mine, theirs, pick in (
            ("diameter", other.diameter, max),
            ("radius", other.radius, min),
        ):
            current = getattr(self, mine)
            if theirs is not None:
                setattr(self, mine, theirs if current is None else pick(current, theirs))
        self.reach_counts += other.reach_counts

    def summary(self) -> DistanceSummary:
        """The dense-convention :class:`DistanceSummary` of the absorbed rows.

        Matches the dense :func:`~repro.core.distances.distance_summary` bit
        for bit, including the degenerate conventions: ``n <= 1`` reports
        ``(0, 0, 0.0, 1.0)``; a fully-unreachable instance reports
        ``diameter = radius = UNREACHABLE``, ``average_distance = nan`` and
        ``reachable_fraction = 0.0``.
        """
        n = self.n
        if n <= 1:
            return DistanceSummary(
                diameter=0, radius=0, average_distance=0.0, reachable_fraction=1.0
            )
        if self.rows != n:
            raise ConfigurationError(
                f"summary needs all {n} rows absorbed, have {self.rows} "
                "(merge the remaining tile partials first)"
            )
        return DistanceSummary(
            diameter=int(self.diameter),
            radius=int(self.radius),
            average_distance=self.moments.mean,
            reachable_fraction=self.reachable_pairs / float(n * (n - 1)),
        )

    def to_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (the shard-transport representation)."""
        return {
            "n": self.n,
            "rows": self.rows,
            "reachable_pairs": self.reachable_pairs,
            "moments": self.moments.to_state(),
            "diameter": self.diameter,
            "radius": self.radius,
            "reach_counts": self.reach_counts.tolist(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "BlockedSummaryAccumulator":
        """Rebuild from a :meth:`to_state` snapshot."""
        accumulator = cls(int(state["n"]))
        accumulator.rows = int(state["rows"])
        accumulator.reachable_pairs = int(state["reachable_pairs"])
        accumulator.moments = ExactDistanceMoments.from_state(state["moments"])
        accumulator.diameter = None if state["diameter"] is None else int(state["diameter"])
        accumulator.radius = None if state["radius"] is None else int(state["radius"])
        accumulator.reach_counts = np.asarray(state["reach_counts"], dtype=np.int64)
        return accumulator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedSummaryAccumulator):
            return NotImplemented
        return (
            self.n == other.n
            and self.rows == other.rows
            and self.reachable_pairs == other.reachable_pairs
            and self.moments == other.moments
            and self.diameter == other.diameter
            and self.radius == other.radius
            and bool(np.array_equal(self.reach_counts, other.reach_counts))
        )

    def __repr__(self) -> str:
        return (
            f"BlockedSummaryAccumulator(n={self.n}, rows={self.rows}, "
            f"reachable_pairs={self.reachable_pairs})"
        )


@dataclass(frozen=True, slots=True)
class BlockedSweepResult:
    """Everything one blocked sweep produced.

    Attributes
    ----------
    direction:
        ``"forward"`` (earliest-arrival rows per source) or ``"reverse"``
        (deadline-referenced distance rows per target, the
        :meth:`~repro.analysis_api.NetworkAnalysis.distances_to` convention).
    tile_size / num_tiles:
        The resolved tile width and how many tiles ran.
    summary:
        The dense-convention :class:`DistanceSummary`.
    moments:
        Exact moments of the off-diagonal reachable distances.
    eccentricities:
        Per-row maximum distance (per source forward, per target reverse),
        assembled from the tile partials; length ``n``.
    reach_counts:
        Per-column count of rows with a journey to the column (the
        ``reach_counts`` centrality partial); length ``n``.
    spill:
        The ``numpy.memmap`` holding the full distance rows when
        ``spill_path`` was given, else ``None``.
    """

    direction: str
    tile_size: int
    num_tiles: int
    summary: DistanceSummary
    moments: ExactDistanceMoments
    eccentricities: np.ndarray
    reach_counts: np.ndarray
    spill: np.ndarray | None = None


def _fold_tile(
    accumulator: BlockedSummaryAccumulator,
    network: TemporalGraph,
    rows: np.ndarray,
    swept: SweepOutputs,
    reverse: bool,
) -> np.ndarray:
    """Fold one tile's sweep outputs into ``accumulator``, with no ``int64`` tile.

    The entries group ``g`` settles are distances ``labels[g]``, so the
    settle counts give the reachable pairs and the exact moments.  A row
    whose column bit is set in every vertex has eccentricity ``last``, else
    :data:`~repro.types.UNREACHABLE`; the per-vertex popcounts, minus the
    tile's own start bits, are its reach counts.  Returns the tile's
    eccentricities.
    """
    groups = np.flatnonzero(swept.settled)
    values = []
    if groups.size:
        csr = network.reverse_timearc_csr if reverse else network.timearc_csr
        values = csr.labels[groups].tolist()
    complete = np.bitwise_and.reduce(swept.reached, axis=0).view(np.uint8)
    complete = np.unpackbits(complete, count=rows.size).view(np.bool_)
    eccentricities = np.where(complete, swept.last, UNREACHABLE)
    reach_counts = np.bitwise_count(swept.reached).sum(axis=1, dtype=np.int64)
    reach_counts[rows] -= 1
    accumulator._absorb(
        eccentricities, values, swept.settled[groups].tolist(), reach_counts
    )
    return eccentricities


def blocked_sweep_summary(
    network: TemporalGraph,
    *,
    tile_size: int | None = None,
    direction: str = "forward",
    spill_path: Any | None = None,
) -> BlockedSweepResult:
    """Run one blocked all-pairs sweep and stream it into a summary.

    Parameters
    ----------
    network:
        The temporal network.
    tile_size:
        Rows per tile; ``None`` uses the process default installed by
        :func:`set_default_tile_size` (the ``--tile-size`` CLI flag), else
        :data:`DEFAULT_TILE_SIZE`.  Values above ``n`` clamp to one tile.
    direction:
        ``"forward"`` streams earliest-arrival rows per source;
        ``"reverse"`` streams deadline-referenced distance rows per target
        (the :meth:`~repro.analysis_api.NetworkAnalysis.distances_to`
        convention), without ever running a forward sweep.
    spill_path:
        Optional path; when given, the distance rows are additionally written
        tile by tile into a ``.npy``-format ``numpy.memmap`` at this path
        (reload with ``numpy.load(path, mmap_mode="r")``).

    Returns
    -------
    BlockedSweepResult
        Summary, exact moments, per-row eccentricities, per-column reach
        counts and (optionally) the spill memmap.  ``result.summary`` is
        bit-identical to the dense path for every tile size.
    """
    if direction not in _DIRECTIONS:
        raise ConfigurationError(
            f"direction must be one of {_DIRECTIONS}, got {direction!r}"
        )
    n = network.n
    width = resolve_tile_size(tile_size, n)
    accumulator = BlockedSummaryAccumulator(n)
    eccentricities = np.zeros(n, dtype=np.int64)
    spill: np.ndarray | None = None
    if spill_path is not None:
        spill = np.lib.format.open_memmap(
            spill_path, mode="w+", dtype=np.int64, shape=(n, n)
        )
    recs = _telemetry_active()
    reverse = direction == "reverse"
    num_tiles = 0
    for start in range(0, n, width):
        tile_start = time.perf_counter() if recs else 0.0
        rows = np.arange(start, min(start + width, n), dtype=np.int64)
        # Start 0 is start_time 0 forward and the lifetime deadline (a − a)
        # reverse, whose arrivals already are the distances a + 1 − departure.
        swept = _sweep(
            network,
            rows,
            0,
            reverse=reverse,
            arrivals=spill is not None,
            settles=True,
        )
        tile_ecc = _fold_tile(accumulator, network, rows, swept, reverse)
        if n > 1:
            eccentricities[rows] = tile_ecc
        if spill is not None:
            spill[rows[0] : rows[-1] + 1] = swept.arrivals.T
        num_tiles += 1
        if recs:
            duration_ms = (time.perf_counter() - tile_start) * 1e3
            for rec in recs:
                rec.counter("blocked.tiles")
                rec.counter("blocked.rows", rows.size)
                rec.observe_ms("blocked.tile_ms", duration_ms)
                if spill is not None:
                    rec.counter("blocked.spill_bytes", int(swept.arrivals.nbytes))
    if spill is not None:
        spill.flush()
    return BlockedSweepResult(
        direction=direction,
        tile_size=width,
        num_tiles=num_tiles,
        summary=accumulator.summary(),
        moments=accumulator.moments,
        eccentricities=eccentricities,
        reach_counts=accumulator.reach_counts,
        spill=spill,
    )


def streamed_distance_summary(
    network: TemporalGraph,
    *,
    tile_size: int | None = None,
    direction: str = "forward",
) -> DistanceSummary:
    """All-pairs distance statistics in ``O(n · tile_size)`` memory.

    The streamed twin of
    :func:`repro.core.distances.temporal_distance_summary`: same
    :class:`DistanceSummary`, bit for bit, without ever materializing the
    ``(n, n)`` matrix.  Prefer
    :meth:`repro.analysis_api.NetworkAnalysis.streamed_distance_summary` when
    holding a handle.
    """
    return blocked_sweep_summary(
        network, tile_size=tile_size, direction=direction
    ).summary


def streamed_reachable_fraction(
    network: TemporalGraph,
    *,
    tile_size: int | None = None,
    direction: str = "forward",
) -> float:
    """Fraction of ordered pairs ``s != t`` with a journey, streamed.

    The blocked twin of :func:`repro.core.reachability.reachable_fraction`
    (bit-identical), in ``O(n · tile_size)`` memory.
    """
    return streamed_distance_summary(
        network, tile_size=tile_size, direction=direction
    ).reachable_fraction

