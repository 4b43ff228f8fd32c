"""The Price of Randomness (Definitions 7–8, Theorems 6–8).

``PoR(G) = m · r(n) / OPT`` where ``r(n)`` is the least number of uniform
random labels per edge that strongly guarantees temporal reachability whp, and
``OPT`` is the minimum total number of labels of a *deterministic* assignment
preserving reachability.

``OPT`` is NP-hard to approximate in general (the paper cites [21]), so this
module provides what the paper actually uses plus certified bounds.  ``OPT``
depends on the lifetime ``a`` (labels come from ``{1, …, a}``), so the
functions that give it take one, defaulting to the normalized ``a = n``:

* the exact star value (Theorem 6's setting): ``2m`` at lifetime 2 and
  ``2m − 1`` from lifetime 3 on, where the paper states ``2m``,
* the spanning-tree lower bound ``OPT ≥ n − 1``,
* the constructive upper bound ``OPT ≤ 2·(n − 1)`` via the gather/scatter
  spanning-tree assignment (:func:`repro.core.labeling.tree_broadcast_assignment`),
  which needs a lifetime of at least ``2·radius(G)``,
* the Theorem 7 sufficient value ``r > 2·d(G)·log n`` and the resulting
  Theorem 8 upper bound on ``PoR``.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError, GraphError
from ..graphs.properties import all_pairs_shortest_paths, is_connected
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


def opt_labels_star(n: int, lifetime: int | None = None) -> int:
    """Exact ``OPT`` for the star ``K_{1,n−1}`` at ``lifetime`` (default ``n``).

    With ``m = n − 1 ≥ 2`` leaf edges it is ``2m`` at lifetime 2 and
    ``2m − 1`` from lifetime 3 on.  The paper's Theorem 6 uses ``2m``.

    Proof.  A centre–leaf pair is joined by its own edge, so only journeys
    between two leaves matter, and each crosses the first leaf's edge and
    then the second's at a strictly larger label.  Every leaf edge needs a
    label.  If leaf edge ``e`` carries the single label ``ℓ``, every other
    leaf edge needs a label below ``ℓ`` (to reach ``e``'s leaf) and one
    above it (to be reached from it).  So no other edge carries a single
    label, which gives ``OPT ≥ 2m − 1``; and ``1 < ℓ < a``, which no label
    of lifetime 2 satisfies, so there ``OPT ≥ 2m``.  The labels ``{1, 2}``
    on every edge preserve reachability (into the centre at 1, out at 2).
    From lifetime 3, one edge labelled ``{2}`` and every other ``{1, 3}``
    does: out of the single-label leaf at 2 then 3, into it at 1 then 2,
    between two other leaves at 1 then 3.

    ``n ≤ 2`` leaves no two leaves: ``OPT = m``.

    Raises
    ------
    ConfigurationError
        At lifetime 1 with ``n ≥ 3``: a journey between two leaves needs two
        labels, so no assignment preserves reachability.
    """
    n = check_positive_int(n, "n")
    lifetime = check_positive_int(n if lifetime is None else lifetime, "lifetime")
    m = n - 1
    if m < 2:
        return m
    if lifetime < 2:
        raise ConfigurationError(
            f"no assignment of lifetime {lifetime} preserves the reachability "
            f"of a star with {m} leaves"
        )
    return 2 * m if lifetime == 2 else 2 * m - 1


def opt_labels_lower_bound(graph: StaticGraph) -> int:
    """The paper's lower bound ``OPT ≥ n − 1``.

    At least ``n − 1`` edges must carry a label, otherwise the labelled edges
    cannot even contain a spanning tree of the (connected) graph.
    """
    if not is_connected(graph):
        raise GraphError("OPT is defined for connected graphs")
    return max(graph.n - 1, 0)


def opt_labels_upper_bound(graph: StaticGraph, lifetime: int | None = None) -> int:
    """Constructive upper bound on ``OPT`` at ``lifetime`` (default ``n``).

    The gather/scatter assignment labels the ``n − 1`` arcs of an
    in-arborescence and the ``n − 1`` of an out-arborescence once each (on
    an undirected graph, one spanning tree's edges twice), so
    ``OPT ≤ 2·(n − 1)`` once the lifetime reaches ``2·radius(G)`` (on a
    digraph, the least ``ecc_in(r) + ecc_out(r)`` over roots ``r``); for
    the clique one label per edge already preserves reachability at every
    lifetime, giving the (sometimes smaller) bound ``m``.

    Raises
    ------
    ConfigurationError
        If the lifetime is below ``2·radius(G)`` and the graph is not a
        clique.  There the bound can fail: at lifetime 2 the cycle on five
        vertices needs 10 labels, not 8, and no assignment preserves the
        reachability of a path on four to seven vertices.
    GraphError
        If the graph is not (strongly) connected.
    """
    if not is_connected(graph):
        raise GraphError("OPT is defined for connected graphs")
    n = graph.n
    if n <= 1:
        return 0
    lifetime = check_positive_int(n if lifetime is None else lifetime, "lifetime")
    # The clique reaches every pair directly through the single edge label.
    clique = graph.m == (n * (n - 1) if graph.directed else n * (n - 1) // 2)
    # 2·radius(G) is at most n, and ecc_in(r) + ecc_out(r) at most 2(n − 1).
    if lifetime < (2 * (n - 1) if graph.directed else n):
        # Rooted at r, the gather/scatter labels run up to ecc_in(r) + ecc_out(r).
        distances = all_pairs_shortest_paths(graph)
        needed = int(np.min(distances.max(axis=0) + distances.max(axis=1)))
        if lifetime < needed:
            if clique:
                return graph.m
            raise ConfigurationError(
                f"lifetime {lifetime} is below {needed}, the least lifetime of "
                "a gather/scatter assignment, so 2(n − 1) bounds no OPT there"
            )
    return min(2 * (n - 1), graph.m) if clique else 2 * (n - 1)


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
        :func:`opt_labels_upper_bound` at the normalized lifetime ``n``, which
        makes the returned ratio a *lower bound* on the true PoR (dividing by
        a larger OPT can only shrink the ratio) — the conservative choice
        when reporting measured PoR values.  Pass the bound at the labels'
        lifetime when it is not ``n``.
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
