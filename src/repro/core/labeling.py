"""Label assignment strategies.

Random assignments
------------------
* :func:`uniform_random_labels` — the paper's random model: every edge
  independently receives ``r`` labels, each drawn from ``{1, …, a}`` (UNI-CASE
  by default, or an arbitrary :class:`~repro.randomness.LabelDistribution` for
  the F-CASE).  With ``r = 1`` and ``a = n`` this is exactly the *Normalized
  Uniform Random Temporal Network* of Definition 4.  The stacked reachability
  decisions read its draws, :func:`uniform_label_draws`, with no network.
* :func:`normalized_urtn` — convenience wrapper for the normalized U-RTN.

Deterministic assignments (baselines / OPT constructions)
----------------------------------------------------------
* :func:`box_assignment` — the Section 5 construction: the lifetime is split
  into ``d(G)`` boxes of size ``λ = q / d(G)`` and every edge receives one
  label per box; Claim 1 shows this preserves reachability.
* :func:`tree_broadcast_assignment` — a 2-labels-per-tree-edge construction
  (gather towards a root, then scatter) that preserves reachability with
  ``2·(n−1)`` total labels on any (strongly) connected graph; on the star
  (where the tree is the whole graph) it is the paper's ``2m`` assignment,
  optimal at lifetime 2.
* :func:`assign_deterministic_labels` — assign explicit user-provided labels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import GraphError, LabelingError
from ..graphs.properties import bfs_distances, diameter, is_connected
from ..graphs.static_graph import StaticGraph
from ..randomness.distributions import LabelDistribution, UniformLabelDistribution
from ..utils.seeding import SeedLike, normalize_rng
from ..utils.validation import check_positive_int
from .temporal_graph import TemporalGraph

__all__ = [
    "uniform_label_draws",
    "uniform_random_labels",
    "normalized_urtn",
    "box_assignment",
    "tree_broadcast_assignment",
    "assign_deterministic_labels",
]


def uniform_label_draws(
    graph: StaticGraph,
    *,
    labels_per_edge: int = 1,
    lifetime: int | None = None,
    distribution: LabelDistribution | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """The ``(m, r)`` label draws of :func:`uniform_random_labels`, which takes the same parameters.

    Row ``i`` holds the labels drawn for edge ``i``, duplicates included:
    one ``distribution.sample((m, r))`` call, or none on a graph with no edges.
    """
    r = check_positive_int(labels_per_edge, "labels_per_edge")
    a = check_positive_int(lifetime if lifetime is not None else graph.n, "lifetime")
    if distribution is None:
        distribution = UniformLabelDistribution(a)
    elif distribution.lifetime != a:
        raise LabelingError(
            f"distribution lifetime {distribution.lifetime} does not match the "
            f"requested lifetime {a}"
        )
    rng = normalize_rng(seed)
    if graph.m == 0:
        return np.empty((0, r), dtype=np.int64)
    return distribution.sample((graph.m, r), seed=rng)


def uniform_random_labels(
    graph: StaticGraph,
    *,
    labels_per_edge: int = 1,
    lifetime: int | None = None,
    distribution: LabelDistribution | None = None,
    seed: SeedLike = None,
) -> TemporalGraph:
    """Assign ``labels_per_edge`` independent random labels to every edge.

    Parameters
    ----------
    graph:
        The underlying static (di)graph.
    labels_per_edge:
        The paper's ``r``: how many independent labels each edge receives.
        Duplicate draws on the same edge are collapsed (the label *set* is what
        matters for journeys), so an edge may end up with fewer than ``r``
        distinct labels — exactly as in the paper's model where labels are
        drawn independently.
    lifetime:
        The label range upper bound ``a``.  Defaults to ``graph.n``
        (normalized case).
    distribution:
        Distribution of each label.  ``None`` means uniform over
        ``{1, …, lifetime}`` (UNI-CASE); otherwise the distribution's own
        lifetime must match ``lifetime`` (F-CASE).
    seed:
        RNG seed / generator.

    Returns
    -------
    TemporalGraph
        The sampled random temporal network.
    """
    a = lifetime if lifetime is not None else graph.n
    draws = uniform_label_draws(
        graph, labels_per_edge=labels_per_edge, lifetime=a, distribution=distribution, seed=seed
    )
    # A row sort gives the stored (edge, label) arrays with no per-edge Python
    # work (benchmarks/bench_label_sampling.py gates the speedup).
    return TemporalGraph.from_label_matrix(graph, draws, lifetime=a)


def normalized_urtn(
    graph: StaticGraph, *, seed: SeedLike = None
) -> TemporalGraph:
    """Sample the Normalized Uniform Random Temporal Network on ``graph``.

    One label per edge, uniform over ``{1, …, n}`` (Definition 4).  Applied to
    the directed clique this is exactly the object of Section 3.
    """
    return uniform_random_labels(
        graph, labels_per_edge=1, lifetime=graph.n, seed=seed
    )


def box_assignment(
    graph: StaticGraph,
    *,
    lifetime: int | None = None,
    mode: str = "first",
    seed: SeedLike = None,
) -> TemporalGraph:
    """The Section 5 box construction: one label per box per edge.

    The lifetime ``q`` (default ``max(n, d(G))``) is split into ``d(G)``
    consecutive ranges ("boxes") of size ``λ = q / d(G)``; every edge gets one
    label inside each box.  Claim 1 of the paper shows the result preserves
    reachability: any static shortest path becomes a journey by taking, on its
    ``i``-th edge, that edge's label from box ``i``.

    Parameters
    ----------
    graph:
        A connected graph (the construction is meaningless otherwise).
    lifetime:
        Total label range ``q``; must be at least ``d(G)``.
    mode:
        Where inside each box the label is placed: ``"first"`` (deterministic,
        smallest label of the box), ``"middle"`` (deterministic, centre of the
        box) or ``"random"`` (uniform inside the box — the randomised reading
        of the construction used in the Theorem 7 proof).
    seed:
        RNG used only for ``mode="random"``.
    """
    if not is_connected(graph):
        raise GraphError("box_assignment requires a connected graph")
    d = max(diameter(graph), 1)
    q = check_positive_int(lifetime if lifetime is not None else max(graph.n, d), "lifetime")
    if q < d:
        raise LabelingError(
            f"lifetime {q} is smaller than the diameter {d}; the box construction "
            "needs at least one label value per box"
        )
    if mode not in {"first", "middle", "random"}:
        raise ValueError(f"mode must be 'first', 'middle' or 'random', got {mode!r}")
    rng = normalize_rng(seed)

    # Box i (1-based) covers labels ((i-1)*λ, i*λ] with λ = q / d; we work with
    # integer boundaries so every box is non-empty.
    boundaries = np.floor(np.linspace(0, q, d + 1)).astype(np.int64)
    labels: list[tuple[int, ...]] = []
    for _ in range(graph.m):
        edge_labels = []
        for i in range(d):
            low, high = int(boundaries[i]), int(boundaries[i + 1])
            low = max(low, 0)
            if high <= low:
                high = low + 1
            if mode == "first":
                label = low + 1
            elif mode == "middle":
                label = low + max(1, (high - low + 1) // 2)
            else:
                label = int(rng.integers(low + 1, high + 1))
            edge_labels.append(min(label, q))
        labels.append(tuple(sorted(set(edge_labels))))
    return TemporalGraph(graph, labels, lifetime=q)


def tree_broadcast_assignment(
    graph: StaticGraph,
    *,
    root: int = 0,
    lifetime: int | None = None,
) -> TemporalGraph:
    """A deterministic assignment with ``2·(n−1)`` labels preserving reachability.

    Two BFS arborescences rooted at ``root`` are labelled in two phases:

    * *gather phase* — every vertex ``v`` at distance ``k`` to the root
      labels the arc to its parent in the in-arborescence (a neighbour one
      step closer to the root) with ``H_in − k + 1``, where ``H_in`` is the
      in-arborescence's height, so labels strictly increase along every
      path to the root;
    * *scatter phase* — every vertex ``v`` at distance ``k`` from the root
      labels the arc from its parent in the out-arborescence with
      ``H_in + k``, so labels strictly increase along every path from the
      root, and every scatter label exceeds every gather label.

    Any ordered pair ``(u, v)`` is then connected by the journey
    ``u → root → v``, so the assignment preserves reachability with total
    label count ``2·(n−1)`` and lifetime ``H_in + H_out``; arcs of neither
    arborescence receive no labels.  On an undirected graph both are one
    BFS tree whose edges each carry two labels.  On the star this is the
    paper's assignment with ``2m`` labels, which is ``OPT`` at lifetime 2;
    from lifetime 3 on ``OPT`` is ``2m − 1``
    (:func:`~repro.core.price_of_randomness.opt_labels_star`).

    Raises
    ------
    GraphError
        If the graph is not (strongly) connected (no spanning arborescence
        exists).
    LabelingError
        If ``lifetime`` is below ``H_in + H_out``.
    """
    if graph.n == 0:
        raise GraphError("cannot label an empty graph")
    if not is_connected(graph):
        raise GraphError("tree_broadcast_assignment requires a connected graph")
    reverse = graph.reverse()
    to_root = bfs_distances(reverse, root)
    from_root = to_root if not graph.directed else bfs_distances(graph, root)
    height_in = int(to_root.max())

    # Gather parent of v: the least out-neighbour one step closer to the
    # root.  Scatter parent: the least in-neighbour one step further from it.
    # No arc gets one label twice: a gather label is at most H_in, a scatter
    # label more.
    labels: dict[int, set[int]] = {}
    for v in range(graph.n):
        if v == root:
            continue
        gather_parent = min(
            int(w) for w in graph.out_neighbors(v) if to_root[w] == to_root[v] - 1
        )
        scatter_parent = min(
            int(w) for w in reverse.out_neighbors(v) if from_root[w] == from_root[v] - 1
        )
        labels.setdefault(graph.edge_index(v, gather_parent), set()).add(
            height_in - int(to_root[v]) + 1
        )
        labels.setdefault(graph.edge_index(scatter_parent, v), set()).add(
            height_in + int(from_root[v])
        )

    needed = height_in + int(from_root.max()) if graph.n > 1 else 1
    a = check_positive_int(
        lifetime if lifetime is not None else max(graph.n, needed), "lifetime"
    )
    if a < needed:
        raise LabelingError(
            f"lifetime {a} is too small for the tree broadcast assignment, "
            f"which needs labels up to {needed}"
        )
    label_list = [tuple(sorted(labels.get(i, ()))) for i in range(graph.m)]
    return TemporalGraph(graph, label_list, lifetime=a)


def assign_deterministic_labels(
    graph: StaticGraph,
    labels: Mapping[tuple[int, int], Sequence[int]],
    *,
    lifetime: int | None = None,
) -> TemporalGraph:
    """Assign explicit labels given as a mapping ``(u, v) → labels``.

    Edges not mentioned in the mapping receive no labels.  Useful in tests and
    for constructing the small, hand-crafted instances used to illustrate the
    paper's definitions.
    """
    per_edge: dict[int, Sequence[int]] = {}
    for (u, v), edge_labels in labels.items():
        per_edge[graph.edge_index(u, v)] = edge_labels
    return TemporalGraph(graph, per_edge, lifetime=lifetime)
