"""All-pairs temporal distances and the temporal diameter (Definition 5).

Every quantity in this module is a reduction of one all-pairs arrival matrix:
the batched :func:`repro.core.journeys.earliest_arrival_matrix` sweep
advances the full ``(sources × vertices)`` arrival state one label group at a
time over the cached :class:`~repro.core.timearc_csr.TimeArcCSR` layout, so
all-pairs temporal distances cost a *single* sweep of the time arcs instead
of ``n`` independent single-source sweeps.

The reductions are plain functions over arrays (:func:`eccentricities_of`,
:func:`distance_summary`).  :class:`repro.analysis_api.NetworkAnalysis` runs
the sweep and memoizes them: ``NetworkAnalysis(network).diameter`` is the
per-instance temporal diameter, and ``.summary``, ``.eccentricities()`` and
``.distances_from(sources)`` are the other views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..types import UNREACHABLE

__all__ = [
    "DistanceSummary",
    "distance_summary",
    "eccentricities_of",
    "summary_of_distance_matrix",
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
