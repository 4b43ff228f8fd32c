"""Temporal centrality: per-vertex closeness, harmonic closeness and reach.

The paper's journey framework supports a whole family of per-vertex
importance measures beyond the global diameter/radius statistics; this module
opens that family on top of the existing arrival machinery:

* **temporal closeness** — ``C(u) = |R(u)| / Σ_{t ∈ R(u)} δ(u, t)`` where
  ``R(u)`` is the set of vertices ``t ≠ u`` reachable from ``u``: the
  reciprocal of the mean temporal distance to the targets ``u`` can actually
  reach (0 when it reaches none).  Unlike classic closeness this stays
  meaningful on partially connected instances — exactly the regime the
  paper's Theorem 6 lower bounds put random sparse labelings in.
* **temporal harmonic closeness** — ``H(u) = (1/(n−1)) Σ_{t ≠ u} 1/δ(u, t)``
  with unreachable targets contributing 0; bounded in ``[0, 1]`` and robust
  to disconnection by construction.
* **influence counts** — ``|R(u)|``: how many vertices ``u``'s messages can
  ever reach (the size of its out-journey cone).
* **reach counts** — the in-mirror: how many vertices can reach ``u``.  For
  a *single* vertex this is exactly one reverse sweep
  (:func:`repro.core.reverse_journeys.reverse_reachable_set`); the batched
  per-vertex vector here comes from the shared all-pairs structure.

The family is one reduction of the arrival matrix, :func:`centrality_arrays`;
each free function runs one sweep and applies it.  The analysis handle
memoizes the same reduction, so hold one when reading several quantities.
"""

from __future__ import annotations

import numpy as np

from ..types import UNREACHABLE
from .journeys import earliest_arrival_matrix
from .temporal_graph import TemporalGraph

__all__ = [
    "centrality_arrays",
    "temporal_closeness",
    "temporal_harmonic_closeness",
    "temporal_influence_counts",
    "temporal_reach_counts",
]


def centrality_arrays(
    matrix: np.ndarray, reachable: np.ndarray
) -> dict[str, np.ndarray]:
    """``closeness``/``harmonic`` (float) and ``influence``/``reach`` (int) arrays.

    ``reachable`` is ``matrix < UNREACHABLE``; all zeros for ``n ≤ 1``.
    """
    n = matrix.shape[0]
    if n <= 1:
        return {
            "closeness": np.zeros(n, dtype=np.float64),
            "harmonic": np.zeros(n, dtype=np.float64),
            "influence": np.zeros(n, dtype=np.int64),
            "reach": np.zeros(n, dtype=np.int64),
        }
    off_diagonal = reachable.copy()
    np.fill_diagonal(off_diagonal, False)
    counts_out = off_diagonal.sum(axis=1)
    distance_sums = np.where(off_diagonal, matrix, 0).sum(axis=1)
    closeness = np.where(
        distance_sums > 0,
        counts_out / np.maximum(distance_sums, 1),
        0.0,
    )
    inverse = np.zeros((n, n), dtype=np.float64)
    inverse[off_diagonal] = 1.0 / matrix[off_diagonal]
    return {
        "closeness": closeness.astype(np.float64),
        "harmonic": inverse.sum(axis=1) / float(n - 1),
        "influence": counts_out.astype(np.int64),
        "reach": off_diagonal.sum(axis=0).astype(np.int64),
    }


def _family(network: TemporalGraph) -> dict[str, np.ndarray]:
    matrix = earliest_arrival_matrix(network)
    return centrality_arrays(matrix, matrix < UNREACHABLE)


def temporal_closeness(network: TemporalGraph) -> np.ndarray:
    """Temporal closeness of every vertex (``float64`` array).

    ``C(u)`` is the reciprocal of the mean temporal distance from ``u`` to
    the vertices it can reach (0.0 when it reaches none); higher is more
    central.
    """
    return _family(network)["closeness"]


def temporal_harmonic_closeness(network: TemporalGraph) -> np.ndarray:
    """Temporal harmonic closeness of every vertex (in ``[0, 1]``).

    ``H(u) = (1/(n−1)) Σ_{t ≠ u} 1/δ(u, t)`` with ``1/∞ = 0`` for
    unreachable targets.
    """
    return _family(network)["harmonic"]


def temporal_influence_counts(network: TemporalGraph) -> np.ndarray:
    """Number of vertices ``t ≠ u`` temporally reachable *from* each ``u``."""
    return _family(network)["influence"]


def temporal_reach_counts(network: TemporalGraph) -> np.ndarray:
    """Number of vertices ``s ≠ v`` with a journey *to* each ``v``."""
    return _family(network)["reach"]
