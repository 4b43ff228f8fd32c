"""Sampling and connectivity of Erdős–Rényi random graphs ``G(n, p)``.

The sampler returns raw edge arrays (not :class:`StaticGraph` instances)
because the connectivity experiments only ever need the components of the
edge set; skipping the graph object keeps the per-trial cost at a few NumPy
calls plus one ``scipy.sparse.csgraph.connected_components`` pass.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.sparse.csgraph import connected_components

from ..graphs.properties import _adjacency
from ..utils.seeding import SeedLike, normalize_rng
from ..utils.validation import check_positive_int, check_probability

__all__ = [
    "sample_gnp_edges",
    "is_gnp_connected",
    "giant_component_fraction",
    "gnp_connectivity",
    "connectivity_probability",
]


@lru_cache(maxsize=8)
def _pair_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The unordered pairs ``u < v`` of ``n`` vertices, as read-only columns.

    Kept per ``n``: every draw at one ``n`` filters the same columns.
    """
    columns = np.triu_indices(n, k=1)
    for column in columns:
        column.flags.writeable = False
    return columns


def sample_gnp_edges(
    n: int, p: float, *, seed: SeedLike = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the edge set of ``G(n, p)`` as two parallel vertex arrays.

    Every unordered pair is kept independently with probability ``p``; the
    whole pair population is materialised (fine for the ``n ≤`` a few thousand
    used in the experiments) and filtered with a single vectorised draw.
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    if n == 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rng = normalize_rng(seed)
    idx_u, idx_v = _pair_columns(n)
    keep = rng.random(idx_u.size) < p
    return idx_u[keep], idx_v[keep]


def _components(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> tuple[int, np.ndarray]:
    """Number of connected components and each vertex's component label."""
    return connected_components(_adjacency(n, edges_u, edges_v), directed=False)


def is_gnp_connected(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> bool:
    """Whether the graph given by the edge arrays is connected on ``n`` vertices."""
    n = check_positive_int(n, "n")
    if n == 1:
        return True
    if edges_u.size < n - 1:
        return False
    return _components(n, edges_u, edges_v)[0] == 1


def giant_component_fraction(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> float:
    """Fraction of vertices in the largest connected component."""
    return gnp_connectivity(n, edges_u, edges_v)[1]


def gnp_connectivity(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> tuple[bool, float]:
    """:func:`is_gnp_connected` and :func:`giant_component_fraction` from one
    components pass over the edge arrays."""
    n = check_positive_int(n, "n")
    count, labels = _components(n, edges_u, edges_v)
    return count == 1, float(np.bincount(labels).max()) / n


def connectivity_probability(
    n: int, p: float, *, trials: int = 50, seed: SeedLike = None
) -> float:
    """Monte-Carlo estimate of ``P[G(n, p) is connected]``."""
    trials = check_positive_int(trials, "trials")
    rng = normalize_rng(seed)
    successes = 0
    for _ in range(trials):
        edges_u, edges_v = sample_gnp_edges(n, p, seed=rng)
        if is_gnp_connected(n, edges_u, edges_v):
            successes += 1
    return successes / trials
