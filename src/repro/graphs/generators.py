"""Generators for the graph families used in the paper and its experiments.

The paper's experiments need: the complete graph (the "hostile clique" of
Section 3), the star ``K_{1,n−1}`` (Theorem 6), graphs of larger diameter for
Theorems 7–8 (paths, cycles, grids, hypercubes, trees), complete bipartite
graphs, and Erdős–Rényi graphs (both as general test graphs and as the
substrate of the Theorem 5 lower bound).  A few extra families (wheel,
barbell, lollipop) are provided because they exercise interesting
diameter/edge-count trade-offs for the Price-of-Randomness bound.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ..utils.seeding import SeedLike, normalize_rng
from ..utils.validation import check_non_negative_int, check_positive_int, check_probability
from .static_graph import StaticGraph

__all__ = [
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "complete_bipartite_graph",
    "binary_tree",
    "random_tree",
    "erdos_renyi_graph",
    "supercritical_erdos_renyi",
    "wheel_graph",
    "barbell_graph",
    "lollipop_graph",
]


def _all_pairs(n: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every arc ``u → v`` with ``u ≠ v`` (every edge ``u < v`` if undirected), sorted."""
    if directed:
        return np.nonzero(~np.eye(n, dtype=bool))
    return np.triu_indices(n, k=1)


def complete_graph(n: int, *, directed: bool = False) -> StaticGraph:
    """Return the complete graph ``K_n`` (the paper's hostile clique).

    For ``directed=True`` every ordered pair ``(u, v)``, ``u ≠ v`` is an arc,
    matching the directed clique of Section 3.
    """
    n = check_positive_int(n, "n")
    tails, heads = _all_pairs(n, directed)
    return StaticGraph._from_arcs(n, tails, heads, directed=directed, name=f"K_{n}")


def star_graph(n: int) -> StaticGraph:
    """Return the star ``K_{1,n−1}``: vertex 0 is the centre, ``1 … n−1`` leaves.

    This is the diameter-2 graph of Theorem 6 for which the Price of
    Randomness is ``Θ(log n)``.
    """
    n = check_positive_int(n, "n")
    if n < 2:
        return StaticGraph(n, [], name=f"star_{n}")
    edges = [(0, leaf) for leaf in range(1, n)]
    return StaticGraph(n, edges, name=f"star_{n}")


def path_graph(n: int) -> StaticGraph:
    """Return the path ``P_n`` with vertices ``0 − 1 − … − (n−1)``."""
    n = check_positive_int(n, "n")
    edges = [(i, i + 1) for i in range(n - 1)]
    return StaticGraph(n, edges, name=f"path_{n}")


def cycle_graph(n: int) -> StaticGraph:
    """Return the cycle ``C_n`` (requires ``n >= 3``)."""
    n = check_positive_int(n, "n")
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return StaticGraph(n, edges, name=f"cycle_{n}")


def grid_graph(rows: int, cols: int) -> StaticGraph:
    """Return the ``rows × cols`` two-dimensional grid graph.

    Vertex ``(r, c)`` is indexed as ``r * cols + c``.
    """
    rows = check_positive_int(rows, "rows")
    cols = check_positive_int(cols, "cols")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return StaticGraph(rows * cols, edges, name=f"grid_{rows}x{cols}")


def hypercube_graph(dimension: int) -> StaticGraph:
    """Return the ``dimension``-dimensional hypercube ``Q_d`` (``2^d`` vertices)."""
    dimension = check_non_negative_int(dimension, "dimension")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << bit))
        for v in range(n)
        for bit in range(dimension)
        if v < (v ^ (1 << bit))
    ]
    return StaticGraph(n, edges, name=f"hypercube_{dimension}")


def complete_bipartite_graph(a: int, b: int) -> StaticGraph:
    """Return ``K_{a,b}``: part A is ``0 … a−1``, part B is ``a … a+b−1``."""
    a = check_positive_int(a, "a")
    b = check_positive_int(b, "b")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return StaticGraph(a + b, edges, name=f"K_{a},{b}")


def binary_tree(depth: int) -> StaticGraph:
    """Return the complete binary tree of the given depth (root has depth 0)."""
    depth = check_non_negative_int(depth, "depth")
    n = (1 << (depth + 1)) - 1
    edges = []
    for v in range(1, n):
        parent = (v - 1) // 2
        edges.append((parent, v))
    return StaticGraph(n, edges, name=f"binary_tree_{depth}")


def random_tree(n: int, *, seed: SeedLike = None) -> StaticGraph:
    """Return a uniformly random labelled tree on ``n`` vertices.

    Sampled through a random Prüfer sequence, which is uniform over labelled
    trees; used as an extreme sparse test case (``m = n−1``) for the
    Price-of-Randomness experiments.
    """
    n = check_positive_int(n, "n")
    if n == 1:
        return StaticGraph(1, [], name="tree_1")
    if n == 2:
        return StaticGraph(2, [(0, 1)], name="tree_2")
    rng = normalize_rng(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for v in prufer:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    # Standard Prüfer decoding with a pointer/leaf scan.
    ptr = 0
    leaf = -1
    for v in prufer:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((int(leaf), int(v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = int(v)
        else:
            leaf = -1
            ptr += 1
    remaining = np.flatnonzero(degree == 1)
    edges.append((int(remaining[0]), int(remaining[1])))
    return StaticGraph(n, edges, name=f"tree_{n}")


def erdos_renyi_graph(
    n: int,
    p: float,
    *,
    directed: bool = False,
    seed: SeedLike = None,
) -> StaticGraph:
    """Sample an Erdős–Rényi graph ``G(n, p)``.

    Each of the ``n·(n−1)/2`` unordered pairs (or ``n·(n−1)`` ordered pairs
    when ``directed=True``) is included independently with probability ``p``.
    The sampling is vectorised over the full pair array, which is fine for the
    laptop-scale ``n`` used by the experiments.
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    rng = normalize_rng(seed)
    tails, heads = _all_pairs(n, directed)
    keep = rng.random(tails.size) < p
    return StaticGraph._from_arcs(
        n, tails[keep], heads[keep], directed=directed, name=f"gnp_{n}_{p:g}"
    )


def supercritical_erdos_renyi(
    n: int, *, factor: float = 3.0, seed: SeedLike = None
) -> StaticGraph:
    """Sample ``G(n, p)`` at ``p = factor·log n / n`` (capped at 1).

    A convenience generator for the connected regime: ``factor > 1`` sits
    above the classical ``log n / n`` connectivity threshold, so the sample
    is connected whp — the substrate both E6 and the declarative
    scenario layer use when they need "a connected sparse random graph of
    roughly this size".
    """
    n = check_positive_int(n, "n")
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    p = min(1.0, factor * math.log(max(n, 2)) / n)
    return erdos_renyi_graph(n, p, seed=seed)


def wheel_graph(n: int) -> StaticGraph:
    """Return the wheel ``W_n``: a cycle on ``n−1`` vertices plus a hub (vertex 0)."""
    n = check_positive_int(n, "n")
    if n < 4:
        raise ValueError(f"a wheel needs at least 4 vertices, got {n}")
    rim = list(range(1, n))
    edges = [(0, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return StaticGraph(n, edges, name=f"wheel_{n}")


def barbell_graph(clique_size: int, bridge_length: int = 0) -> StaticGraph:
    """Return two cliques of ``clique_size`` vertices joined by a path.

    ``bridge_length`` is the number of intermediate path vertices between the
    two cliques (0 means the cliques are joined by a single edge).  Useful as
    a high-edge-count, moderate-diameter stress case for Theorem 8.
    """
    clique_size = check_positive_int(clique_size, "clique_size")
    bridge_length = check_non_negative_int(bridge_length, "bridge_length")
    if clique_size < 2:
        raise ValueError("clique_size must be at least 2")
    n = 2 * clique_size + bridge_length
    edges = list(combinations(range(clique_size), 2))
    offset = clique_size + bridge_length
    edges += [(offset + u, offset + v) for u, v in combinations(range(clique_size), 2)]
    chain = [clique_size - 1] + list(range(clique_size, clique_size + bridge_length)) + [offset]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return StaticGraph(n, edges, name=f"barbell_{clique_size}_{bridge_length}")


def lollipop_graph(clique_size: int, path_length: int) -> StaticGraph:
    """Return a clique with a path of ``path_length`` extra vertices attached."""
    clique_size = check_positive_int(clique_size, "clique_size")
    path_length = check_non_negative_int(path_length, "path_length")
    if clique_size < 2:
        raise ValueError("clique_size must be at least 2")
    n = clique_size + path_length
    edges = list(combinations(range(clique_size), 2))
    chain = [clique_size - 1] + list(range(clique_size, n))
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return StaticGraph(n, edges, name=f"lollipop_{clique_size}_{path_length}")
