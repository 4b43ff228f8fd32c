"""The Price of Randomness (Definitions 7–8, Theorems 6–8).

``PoR(G) = m · r(n) / OPT`` where ``r(n)`` is the least number of uniform
random labels per edge that strongly guarantees temporal reachability whp, and
``OPT`` is the minimum total number of labels of a *deterministic* assignment
preserving reachability.

``OPT`` is NP-hard to approximate in general (the paper cites [21]), so this
module provides what the paper actually uses plus certified bounds:

* the exact value ``OPT = 2m`` for the star (Theorem 6's setting),
* the spanning-tree lower bound ``OPT ≥ n − 1``,
* the constructive upper bound ``OPT ≤ 2·(n − 1)`` via the gather/scatter
  spanning-tree assignment (:func:`repro.core.labeling.tree_broadcast_assignment`),
* the Theorem 7 sufficient value ``r > 2·d(G)·log n`` and the resulting
  Theorem 8 upper bound on ``PoR``.
"""

from __future__ import annotations

import math

from ..exceptions import GraphError
from ..graphs.properties import is_connected
from ..graphs.static_graph import StaticGraph
from ..utils.validation import check_positive_int

__all__ = [
    "opt_labels_star",
    "opt_labels_lower_bound",
    "opt_labels_upper_bound",
    "price_of_randomness",
    "r_sufficient_theorem7",
    "por_upper_bound_theorem8",
]


def opt_labels_star(n: int) -> int:
    """Exact ``OPT`` for the star ``K_{1,n−1}``: ``2·m = 2·(n − 1)``.

    Theorem 6: assigning labels ``{1, 2}`` to every edge preserves
    reachability (leaf → centre at time 1, centre → other leaf at time 2),
    while one label per edge cannot (the centre edge of one of the two hops
    would need to be both earlier and later than the other).
    """
    n = check_positive_int(n, "n")
    if n < 3:
        # K_{1,0} and K_{1,1} degenerate: a single label per edge suffices.
        return max(n - 1, 0)
    return 2 * (n - 1)


def opt_labels_lower_bound(graph: StaticGraph) -> int:
    """The paper's lower bound ``OPT ≥ n − 1``.

    At least ``n − 1`` edges must carry a label, otherwise the labelled edges
    cannot even contain a spanning tree of the (connected) graph.
    """
    if not is_connected(graph):
        raise GraphError("OPT is defined for connected graphs")
    return max(graph.n - 1, 0)


def opt_labels_upper_bound(graph: StaticGraph) -> int:
    """Constructive upper bound on ``OPT``.

    The gather/scatter spanning-tree assignment uses two labels on each of the
    ``n − 1`` tree edges, so ``OPT ≤ 2·(n − 1)`` for every connected graph; for
    the clique one label per edge already preserves reachability, giving the
    (sometimes smaller) bound ``m``.
    """
    if not is_connected(graph):
        raise GraphError("OPT is defined for connected graphs")
    n = graph.n
    if n <= 1:
        return 0
    bound = 2 * (n - 1)
    if n >= 2 and graph.m == (n * (n - 1) // 2 if not graph.directed else n * (n - 1)):
        # The clique reaches every pair directly through the single edge label.
        bound = min(bound, graph.m)
    return bound


def price_of_randomness(graph: StaticGraph, r: int, *, opt: int | None = None) -> float:
    """``PoR(G) = m·r / OPT`` (Definition 8).

    Parameters
    ----------
    graph:
        The underlying connected graph.
    r:
        The (empirical or theoretical) number of random labels per edge that
        strongly guarantees reachability whp.
    opt:
        The value of ``OPT`` to use.  Defaults to the constructive upper bound
        :func:`opt_labels_upper_bound`, which makes the returned ratio a
        *lower bound* on the true PoR (dividing by a larger OPT can only
        shrink the ratio) — the conservative choice when reporting measured
        PoR values.
    """
    r = check_positive_int(r, "r")
    if opt is None:
        opt = opt_labels_upper_bound(graph)
    opt = check_positive_int(opt, "opt")
    return graph.m * r / opt


def r_sufficient_theorem7(n: int, diam: int) -> float:
    """Theorem 7's sufficient number of labels per edge: ``2·d(G)·log n``.

    Any ``r`` strictly larger than this guarantees temporal reachability whp
    under the box argument.  Natural logarithm, as in the paper's analysis.
    """
    n = check_positive_int(n, "n")
    diam = check_positive_int(diam, "diam")
    return 2.0 * diam * math.log(n)


def por_upper_bound_theorem8(
    n: int, m: int, diam: int, *, epsilon: float = 0.0
) -> float:
    """Theorem 8's upper bound: ``PoR(G) ≤ (2·d(G)·log n + ε) · m / (n − 1)``."""
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    diam = check_positive_int(diam, "diam")
    if n < 2:
        raise ValueError("the PoR bound needs at least two vertices")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    return (2.0 * diam * math.log(n) + epsilon) * m / (n - 1)
