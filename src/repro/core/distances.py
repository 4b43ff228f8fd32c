"""All-pairs temporal distances and the temporal diameter (Definition 5).

Every quantity in this module is a reduction of one all-pairs arrival matrix:
the batched :func:`repro.core.journeys.earliest_arrival_matrix` sweep
advances the full ``(sources × vertices)`` arrival state one label group at a
time over the cached :class:`~repro.core.timearc_csr.TimeArcCSR` layout, so
all-pairs temporal distances cost a *single* sweep of the time arcs instead
of ``n`` independent single-source sweeps.

The reductions are plain functions over arrays (:func:`eccentricities_of`,
:func:`distance_summary`); each free function below runs one sweep and
applies them.  :class:`repro.analysis_api.NetworkAnalysis` memoizes the same
reductions, so anything reading **several** quantities of one instance should
hold a handle (``benchmarks/bench_analysis_cache.py`` gates the speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..types import UNREACHABLE
from .journeys import earliest_arrival_matrix
from .temporal_graph import TemporalGraph

__all__ = [
    "DistanceSummary",
    "distance_summary",
    "eccentricities_of",
    "summary_of_distance_matrix",
    "temporal_distance_matrix",
    "temporal_distance_summary",
    "temporal_eccentricities",
    "temporal_diameter",
    "temporal_radius",
    "average_temporal_distance",
]


@dataclass(frozen=True, slots=True)
class DistanceSummary:
    """All-pairs distance statistics derived from one batched sweep.

    Attributes
    ----------
    diameter:
        ``max_{s,t} δ(s, t)``; :data:`~repro.types.UNREACHABLE` if some
        ordered pair has no journey.
    radius:
        The minimum temporal eccentricity over all vertices.
    average_distance:
        Mean δ(s, t) over ordered pairs ``s ≠ t`` with a journey, or ``nan``
        when no such pair exists.
    reachable_fraction:
        Fraction of ordered pairs ``s ≠ t`` connected by a journey.
    """

    diameter: int
    radius: int
    average_distance: float
    reachable_fraction: float


def eccentricities_of(matrix: np.ndarray) -> np.ndarray:
    """Row maxima ``max_v δ(s, v)`` of a square arrival matrix (zeros for n ≤ 1).

    Unreachable targets count, giving :data:`~repro.types.UNREACHABLE`.  The
    diagonal is 0, below every label, so it needs no masking.
    """
    n = matrix.shape[0]
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    return matrix.max(axis=1)


def distance_summary(
    matrix: np.ndarray, eccentricities: np.ndarray, reachable: np.ndarray
) -> DistanceSummary:
    """The :class:`DistanceSummary` of a square arrival matrix.

    ``eccentricities`` is ``eccentricities_of(matrix)`` and ``reachable`` is
    ``matrix < UNREACHABLE``, passed in so the handle reuses its cached ones.
    ``n ≤ 1`` gives ``(0, 0, 0.0, 1.0)``; a fully unreachable matrix gives
    ``(UNREACHABLE, UNREACHABLE, nan, 0.0)``.
    """
    n = matrix.shape[0]
    if n <= 1:
        return DistanceSummary(
            diameter=0, radius=0, average_distance=0.0, reachable_fraction=1.0
        )
    off_diagonal = reachable.copy()
    np.fill_diagonal(off_diagonal, False)
    reachable_pairs = int(off_diagonal.sum())
    if reachable_pairs:
        average = float(matrix[off_diagonal].mean())
    else:
        average = float("nan")
    return DistanceSummary(
        diameter=int(eccentricities.max()),
        radius=int(eccentricities.min()),
        average_distance=average,
        reachable_fraction=reachable_pairs / float(n * (n - 1)),
    )


def summary_of_distance_matrix(matrix: np.ndarray) -> DistanceSummary:
    """:func:`distance_summary` of any full square distance matrix.

    Also applies to the reverse-direction matrix
    (:meth:`~repro.analysis_api.NetworkAnalysis.distances_to`).
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError(
            f"expected a square distance matrix, got shape {matrix.shape}"
        )
    return distance_summary(matrix, eccentricities_of(matrix), matrix < UNREACHABLE)


def temporal_distance_matrix(
    network: TemporalGraph, sources: Sequence[int] | None = None
) -> np.ndarray:
    """Temporal distances δ(s, v) for every requested source ``s``.

    Thin wrapper over the batched engine
    :func:`repro.core.journeys.earliest_arrival_matrix` with the paper's
    convention ``start_time = 0``.

    Parameters
    ----------
    network:
        The temporal network.
    sources:
        Sources to compute rows for; defaults to all vertices.

    Returns
    -------
    numpy.ndarray
        ``(len(sources), n)`` ``int64`` matrix.  Entry ``[i, v]`` is the
        earliest arrival at ``v`` from ``sources[i]`` (0 on the diagonal,
        :data:`~repro.types.UNREACHABLE` when no journey exists).

    See Also
    --------
    repro.analysis_api.NetworkAnalysis.distances_from : the memoizing
        equivalent on an analysis handle.
    """
    return earliest_arrival_matrix(network, sources)


def temporal_distance_summary(network: TemporalGraph) -> DistanceSummary:
    """Compute diameter, radius, average distance and reachability together.

    One call to the batched engine feeds all four statistics.  Equivalent to
    ``NetworkAnalysis(network).summary``; hold the handle yourself if you need
    any *further* quantity of the same instance.

    Returns
    -------
    DistanceSummary
        The bundled statistics for this instance.
    """
    return summary_of_distance_matrix(earliest_arrival_matrix(network))


def temporal_eccentricities(network: TemporalGraph) -> np.ndarray:
    """Temporal eccentricity of every vertex: ``max_v δ(s, v)``.

    The maximum includes unreachable targets, so a vertex that cannot reach
    the whole graph has eccentricity :data:`~repro.types.UNREACHABLE`.
    """
    return eccentricities_of(earliest_arrival_matrix(network))


def temporal_diameter(network: TemporalGraph) -> int:
    """The temporal diameter: ``max_{s,t} δ(s, t)`` for this instance.

    Definition 5 of the paper defines the Temporal Diameter of the *random*
    clique as the expectation of this quantity over instances; the Monte-Carlo
    layer estimates that expectation by averaging this per-instance value.

    Returns :data:`~repro.types.UNREACHABLE` when some ordered pair has no
    journey.
    """
    return temporal_distance_summary(network).diameter


def temporal_radius(network: TemporalGraph) -> int:
    """The minimum temporal eccentricity over all vertices."""
    return temporal_distance_summary(network).radius


def average_temporal_distance(network: TemporalGraph) -> float:
    """Mean δ(s, t) over ordered pairs ``s ≠ t`` with a journey.

    Returns ``nan`` when no ordered pair is temporally reachable.
    """
    return temporal_distance_summary(network).average_distance
