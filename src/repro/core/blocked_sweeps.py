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
a :class:`BlockedSummaryAccumulator` with no ``int64`` tile.
Peak memory is ``O(n · tile_size)`` bits instead of ``O(n²)`` words, while
every reported number stays **exact** (not sampled, not approximate) and
bit-identical to the dense path wherever the dense path can run at all —
the ``n ≤ 512`` pins are the cross-validation oracle for this engine
(``tests/test_blocked_sweeps.py``).  :func:`blocked_sweep_summary` is the
one entry point; :meth:`repro.analysis_api.NetworkAnalysis.streamed_distance_summary`
memoizes its summary per direction and tile width.

Exactness and order invariance
------------------------------
Temporal distances are integers, so the accumulator keeps its moment state in
**exact integer arithmetic** (:class:`ExactDistanceMoments`: count, Σδ, Σδ²
as Python ints, plus min/max).  Folding tiles is therefore associative and
commutative *exactly* — any permutation or partition of the tiles folds to
the same state, which the hypothesis suite pins
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
tile-level memory bounding compose.  A scenario asks for blocked summaries
through its ``distance_summary`` metric options (the CLI's ``--tile-size``
flag writes them), which reach the workers inside the pickled scenario.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

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
    "resolve_tile_size",
    "summary_of_distance_matrix",
]

#: Tile width used when the call names none.  A tile's state is its packed
#: ``reached`` bitset, ``n · ⌈width/64⌉ · 8`` bytes: 320 KB at
#: ``n = 10 000``, 32 MB at ``n = 10⁶`` — orders of magnitude below the dense
#: ``O(n²)`` matrix.
DEFAULT_TILE_SIZE = 256

#: Directions a blocked sweep can run in.
_DIRECTIONS = ("forward", "reverse")


def resolve_tile_size(tile_size: int | None, n: int) -> int:
    """The tile width a blocked sweep should actually use.

    ``tile_size``, or :data:`DEFAULT_TILE_SIZE` when it is ``None``, clamped
    to ``[1, max(n, 1)]`` — a tile wider than the instance is simply one
    tile, so ``tile_size >= n`` degrades gracefully to a single dense-width
    sweep.  A width below 1 raises :class:`~repro.exceptions.ConfigurationError`.
    """
    if tile_size is None:
        tile_size = DEFAULT_TILE_SIZE
    try:
        tile_size = check_positive_int(tile_size, "tile_size")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from None
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


@dataclass(slots=True)
class ExactDistanceMoments:
    """Streaming distance moments in exact integer arithmetic.

    The integer state (count, Σδ, Σδ² as arbitrary-precision Python ints,
    running min/max) makes accumulation exactly associative and commutative:
    any partition of the distance stream into blocks, folded in any order,
    yields the same state bit for bit (and equal states compare equal) — the
    property a floating-point Chan merge cannot offer.  The float views
    (:attr:`mean`, :attr:`variance`) are correctly rounded from the exact
    rationals.
    """

    count: int = 0
    total: int = 0
    total_sq: int = 0
    minimum: int | None = None
    maximum: int | None = None

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


class BlockedSummaryAccumulator:
    """Reduction state of a blocked all-pairs distance sweep.

    One accumulator absorbs tiles — from the sweep's settle counts
    (:func:`blocked_sweep_summary`) or as distance rows (:meth:`add_tile`);
    at the end :meth:`summary` yields the same
    :class:`~repro.core.distances.DistanceSummary` the dense path computes
    from the full matrix.  All scalar state is exact-integer, and the one
    vector (:attr:`reach_counts`, the per-column in-reach partial feeding the
    centrality family's ``reach_counts``) adds up, so the state is order- and
    partition-invariant.
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
                f"summary needs all {n} rows absorbed, have {self.rows}"
            )
        return DistanceSummary(
            diameter=int(self.diameter),
            radius=int(self.radius),
            average_distance=self.moments.mean,
            reachable_fraction=self.reachable_pairs / float(n * (n - 1)),
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
        Rows per tile; ``None`` uses :data:`DEFAULT_TILE_SIZE`.  Values above
        ``n`` clamp to one tile.
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
