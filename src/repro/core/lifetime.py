"""Lifetime effects on the temporal diameter (Theorem 5).

Theorem 5: for the uniform random temporal clique with lifetime ``a``
asymptotically larger than ``n``, the temporal diameter is
``Ω((a/n)·log n)``.  The proof considers the arcs with labels at most ``k``;
they form an Erdős–Rényi graph ``G(n, k/a)``, which is disconnected whp when
``k/a < log n / n``, so some pair of vertices has temporal distance larger
than ``k``.

:func:`prefix_connectivity_time` computes, for a concrete instance, the
smallest time ``k`` at which the labels-≤-k edges connect the graph; it is a
per-instance certified lower bound on the temporal diameter and the measured
quantity the E2 experiment compares against ``(a/n)·log n``.  That time is the
bottleneck (largest edge) of a minimum spanning tree whose edge weights are
each edge's smallest label, found with ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import minimum_spanning_tree

from ..types import UNREACHABLE
from ..utils.validation import check_positive_int
from .temporal_graph import TemporalGraph

__all__ = [
    "prefix_connectivity_time",
    "temporal_diameter_lower_bound_theorem5",
]


def prefix_connectivity_time(network: TemporalGraph) -> int:
    """Smallest ``k`` such that the edges with a label ``≤ k`` connect the graph.

    The temporal diameter of the instance is at least this value: before time
    ``k`` the available edges do not even form a connected (static) graph, so
    some ordered pair cannot have exchanged a message yet.  Returns
    :data:`~repro.types.UNREACHABLE` if the labelled edges never connect the
    graph (e.g. some edges received no labels at all).  Arcs count as
    undirected edges, so a digraph needs only weak connectivity.

    An edge joins the prefix graph at its smallest label.  Weighting every
    edge by that label, the prefix graph at ``k`` is connected exactly when a
    minimum spanning tree has no edge heavier than ``k``, so the answer is the
    tree's largest weight.  The tree is built over the ranks of the distinct
    smallest labels, which ``float64`` holds exactly whatever the lifetime.
    """
    n = network.n
    if n <= 1:
        return 0
    edges = network.time_arc_edge_index
    labelled = np.zeros(network.m, dtype=bool)
    labelled[edges] = True
    first = np.full(network.m, np.iinfo(np.int64).max)
    np.minimum.at(first, edges, network.time_arc_labels)
    distinct, rank = np.unique(first[labelled], return_inverse=True)
    pairs = network.graph.edge_pairs[labelled]
    tree = minimum_spanning_tree(
        csr_array((rank + 1.0, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    )
    if tree.nnz < n - 1:
        return UNREACHABLE
    return int(distinct[int(tree.data.max()) - 1])


def temporal_diameter_lower_bound_theorem5(n: int, lifetime: int) -> float:
    """The Theorem 5 asymptotic lower bound ``(a/n)·log n`` (natural log).

    For ``a ≤ n`` the bound degrades to the normalized-case ``log n`` lower
    bound of the Remark after Theorem 4.
    """
    n = check_positive_int(n, "n")
    lifetime = check_positive_int(lifetime, "lifetime")
    scale = max(lifetime / n, 1.0)
    return scale * math.log(n)
