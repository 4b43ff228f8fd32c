"""The Expansion Process of Algorithm 1.

Given an instance of the directed normalized uniform random temporal clique,
the algorithm grows a forward frontier out of the source ``s`` and a backward
frontier into the target ``t``, each layer using labels from a dedicated
interval:

* ``∆_1 = (0, c₁·log n]`` for the first forward layer,
* ``∆_i = (c₁·log n + (i−2)·c₂, c₁·log n + (i−1)·c₂]`` for forward layers
  ``i = 2 … d+1``,
* ``∆* = (c₁·log n + d·c₂, 2·c₁·log n + d·c₂]`` for the matching edge,
* ``∆'_i = (2·c₁·log n + (2d−i+1)·c₂, 2·c₁·log n + (2d−i+2)·c₂]`` for
  backward layers ``i = 2 … d+1``, and
* ``∆'_1 = (2·c₁·log n + 2d·c₂, 3·c₁·log n + 2d·c₂]`` for the last hop into
  ``t``.

If the two frontiers can be matched by an arc labelled in ``∆*``, the
concatenated journey arrives by time ``3·c₁·log n + 2·d·c₂ = Θ(log n)``
(Theorem 3).  The implementation records the layer sizes (``|Γ_i(s)|``,
``|Γ'_i(t)|``) so the experiment layer can regenerate the Figure 1 trace, and
reconstructs the explicit journey on success.

The paper's constants (``c₁ ≥ 33``, ``c₁·c₂ ≥ 1024``) are what the
probability-1−O(n⁻³) guarantee needs asymptotically; at laptop-scale ``n``
those intervals would exceed the lifetime, so :meth:`ExpansionParameters.suggest`
picks practical constants (documented in DESIGN.md §5) while keeping the
interval structure exactly as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ExperimentError, GraphError, InvalidVertexError
from ..types import Journey, TimeEdge
from .temporal_graph import TemporalGraph

__all__ = ["ExpansionParameters", "ExpansionResult", "expansion_process"]


@dataclass(frozen=True, slots=True)
class ExpansionParameters:
    """Constants of Algorithm 1: the interval widths ``c₁``, ``c₂`` and depth ``d``."""

    c1: float
    c2: float
    d: int

    def __post_init__(self) -> None:
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.d < 1:
            raise ValueError("the expansion depth d must be at least 1")

    @classmethod
    def suggest(cls, n: int, *, c1: float = 3.0, c2: float = 8.0) -> "ExpansionParameters":
        """Pick a depth ``d`` so the expansion reaches ≈√n vertices.

        Mirrors the paper's choice ``(c₂/8)^d · c₁·log n ≈ √n`` but uses the
        *expected* per-layer growth factor (≈ ``c₂/2`` for small layers) so
        the resulting intervals stay well inside the lifetime at practical
        ``n``.
        """
        if n < 4:
            raise ValueError(f"the expansion process needs n >= 4, got {n}")
        log_n = math.log(n)
        base_layer = c1 * log_n
        growth = max(c2 / 2.0, 1.5)
        target = math.sqrt(n)
        if base_layer >= target:
            d = 1
        else:
            d = max(1, math.ceil(math.log(target / base_layer) / math.log(growth)))
        return cls(c1=c1, c2=c2, d=d)

    def time_bound(self, n: int) -> float:
        """The arrival-time bound ``3·c₁·log n + 2·d·c₂`` of the Note in §3."""
        return 3.0 * self.c1 * math.log(n) + 2.0 * self.d * self.c2

    # ------------------------------------------------------------------ #
    # interval bookkeeping (all intervals are half-open (low, high])
    # ------------------------------------------------------------------ #
    def forward_interval(self, n: int, i: int) -> tuple[float, float]:
        """The interval ``∆_i`` for forward layer ``i`` (1-based, up to d+1)."""
        if not 1 <= i <= self.d + 1:
            raise ValueError(f"forward layer index must be in [1, {self.d + 1}], got {i}")
        c1_log = self.c1 * math.log(n)
        if i == 1:
            return (0.0, c1_log)
        return (c1_log + (i - 2) * self.c2, c1_log + (i - 1) * self.c2)

    def matching_interval(self, n: int) -> tuple[float, float]:
        """The interval ``∆*`` for the matching edge."""
        c1_log = self.c1 * math.log(n)
        return (c1_log + self.d * self.c2, 2.0 * c1_log + self.d * self.c2)

    def backward_interval(self, n: int, i: int) -> tuple[float, float]:
        """The interval ``∆'_i`` for backward layer ``i`` (1-based, up to d+1)."""
        if not 1 <= i <= self.d + 1:
            raise ValueError(f"backward layer index must be in [1, {self.d + 1}], got {i}")
        c1_log = self.c1 * math.log(n)
        base = 2.0 * c1_log
        if i == 1:
            return (base + 2 * self.d * self.c2, 3.0 * c1_log + 2 * self.d * self.c2)
        return (
            base + (2 * self.d - i + 1) * self.c2,
            base + (2 * self.d - i + 2) * self.c2,
        )


@dataclass(slots=True)
class ExpansionResult:
    """Outcome of one run of the Expansion Process.

    Attributes
    ----------
    success:
        Whether a matching edge was found (line 8 of Algorithm 1).
    journey:
        The explicit s→t journey on success, ``None`` on failure.
    arrival_time:
        The journey's arrival time on success, ``None`` on failure.
    forward_layer_sizes / backward_layer_sizes:
        ``|Γ_i(s)|`` and ``|Γ'_i(t)|`` for ``i = 1 … d+1`` — the measured
        counterpart of the Figure 1 diagram.
    forward_layers / backward_layers:
        The actual vertex sets of each layer (lists of vertex indices).
    parameters / time_bound:
        The constants used and the analytic bound ``3c₁ log n + 2dc₂``.
    """

    success: bool
    journey: Journey | None
    arrival_time: int | None
    forward_layer_sizes: list[int]
    backward_layer_sizes: list[int]
    forward_layers: list[list[int]] = field(repr=False)
    backward_layers: list[list[int]] = field(repr=False)
    parameters: ExpansionParameters = field(repr=False)
    time_bound: float = 0.0


def _label_matrix(network: TemporalGraph) -> np.ndarray:
    """``(n, n)`` matrix of the smallest label of every arc, 0 where there is none.

    Every interval of Algorithm 1 is open at a low end ``>= 0``, so no
    interval holds an empty cell.
    """
    empty = np.iinfo(np.int64).max
    matrix = np.full((network.n, network.n), empty, dtype=np.int64)
    arcs = (network.time_arc_tails, network.time_arc_heads)
    np.minimum.at(matrix, arcs, network.time_arc_labels)
    matrix[matrix == empty] = 0
    return matrix


def _expand(
    labels: np.ndarray, start: int, end: int, intervals: list[tuple[float, float]]
) -> tuple[list[list[int]], dict[int, tuple[int, int]]]:
    """Grow layers out of ``start``; layer ``i`` crosses arcs labelled in ``intervals[i]``.

    ``labels[u, v]`` is the label of the arc a layer crosses from ``u`` in
    the previous layer to ``v``: the label matrix for the forward pass out
    of ``s``, its transpose for the backward pass into ``t``.  A layer holds
    the vertices that such an arc reaches, except ``start``, ``end`` and the
    earlier layers' vertices.  Each comes with its witness ``(u, label)``,
    where ``u`` is the first such vertex in the previous layer's set
    iteration order.  Returns the sorted layers, padded with empty ones to
    ``len(intervals)``, and every layer vertex's witness.
    """
    blocked = np.zeros(labels.shape[0], dtype=bool)
    blocked[[start, end]] = True
    layers: list[list[int]] = []
    witnesses: dict[int, tuple[int, int]] = {}
    frontier: set[int] = {start}
    for low, high in intervals:
        tails = list(frontier)
        rows = labels[tails]
        hits = (rows > low) & (rows <= high) & ~blocked
        reached = np.flatnonzero(hits.any(axis=0))
        first = hits[:, reached].argmax(axis=0)
        # The witnesses in the order a scan of the frontier finds them.
        order = np.argsort(first, kind="stable")
        vertices = reached[order].tolist()
        via = first[order]
        witness_tails = [tails[i] for i in via.tolist()]
        layer = dict(zip(vertices, zip(witness_tails, rows[via, vertices].tolist())))
        witnesses.update(layer)
        frontier = set(layer)
        blocked[vertices] = True
        layers.append(sorted(frontier))
        if not frontier:
            break
    layers.extend([] for _ in range(len(intervals) - len(layers)))
    return layers, witnesses


def expansion_process(
    network: TemporalGraph,
    source: int,
    target: int,
    parameters: ExpansionParameters | None = None,
) -> ExpansionResult:
    """Run Algorithm 1 on an instance of the random temporal clique.

    Parameters
    ----------
    network:
        A temporal network whose underlying graph is the (directed or
        undirected) clique with exactly one label per arc/edge — the
        normalized U-RTN of Section 3.  Undirected cliques are accepted
        (Remark 1: the analysis carries over).
    source, target:
        The vertices ``s`` and ``t``.
    parameters:
        Algorithm constants; defaults to :meth:`ExpansionParameters.suggest`.

    Returns
    -------
    ExpansionResult

    Raises
    ------
    GraphError
        If the underlying graph is not a clique.
    ExperimentError
        If ``source == target``.
    InvalidVertexError
        If ``source`` or ``target`` is not a vertex.
    """
    n = network.n
    if source == target:
        raise ExperimentError("the expansion process needs two distinct vertices")
    expected_m = n * (n - 1) if network.directed else n * (n - 1) // 2
    if network.m != expected_m:
        raise GraphError(
            "the expansion process is defined on the complete graph; got "
            f"m={network.m}, expected {expected_m}"
        )
    for vertex in (source, target):
        if not network.graph.has_vertex(vertex):
            raise InvalidVertexError(vertex, n)
    if parameters is None:
        parameters = ExpansionParameters.suggest(n)

    labels = _label_matrix(network)
    d = parameters.d
    layer_indices = range(1, d + 2)
    # Forward expansion out of s (lines 2-4), backward into t (lines 5-7).
    forward_layers, forward_parent = _expand(
        labels, source, target, [parameters.forward_interval(n, i) for i in layer_indices]
    )
    backward_layers, backward_next = _expand(
        labels.T, target, source, [parameters.backward_interval(n, i) for i in layer_indices]
    )

    result_common = dict(
        forward_layer_sizes=[len(layer) for layer in forward_layers],
        backward_layer_sizes=[len(layer) for layer in backward_layers],
        forward_layers=forward_layers,
        backward_layers=backward_layers,
        parameters=parameters,
        time_bound=parameters.time_bound(n),
    )

    # ------------------------------------------------------------------ #
    # matching step (line 8): the first arc in (u, v) order
    # ------------------------------------------------------------------ #
    low, high = parameters.matching_interval(n)
    last_forward, last_backward = forward_layers[d], backward_layers[d]
    block = labels[np.ix_(last_forward, last_backward)]
    hits = np.argwhere((block > low) & (block <= high))
    if hits.size == 0:
        return ExpansionResult(
            success=False, journey=None, arrival_time=None, **result_common
        )

    # ------------------------------------------------------------------ #
    # journey reconstruction (line 9)
    # ------------------------------------------------------------------ #
    i, j = hits[0].tolist()
    u, v, matching_label = last_forward[i], last_backward[j], int(block[i, j])
    forward_hops: list[TimeEdge] = []
    current = u
    while current != source:
        parent, label = forward_parent[current]
        forward_hops.append(TimeEdge(parent, current, label))
        current = parent
    forward_hops.reverse()

    backward_hops: list[TimeEdge] = []
    current = v
    while current != target:
        nxt, label = backward_next[current]
        backward_hops.append(TimeEdge(current, nxt, label))
        current = nxt

    hops = tuple(forward_hops + [TimeEdge(u, v, matching_label)] + backward_hops)
    journey = Journey(source, target, hops)
    return ExpansionResult(
        success=True,
        journey=journey,
        arrival_time=journey.arrival_time,
        **result_common,
    )
