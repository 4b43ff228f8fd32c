"""Array-based static (di)graph representation.

:class:`StaticGraph` stores the edge list as two parallel ``int64`` arrays
(``tails``/``heads``) plus a CSR-style index for fast out-neighbour lookups.
This keeps the hot Monte-Carlo kernels (label assignment, journey sweeps)
fully vectorised: they operate directly on the edge arrays without Python
per-edge loops, following the "vectorise the inner loop" idiom of the
scientific-Python performance guides.

Undirected graphs are stored as symmetric digraphs (both arc directions are
present) because the paper's journey semantics always traverse an undirected
edge in either direction; the ``directed`` flag records the user's intent and
``edge_pairs`` exposes the canonical undirected edge list when needed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import GraphError, InvalidEdgeError, InvalidVertexError
from ..utils.validation import check_non_negative_int

__all__ = ["EdgeArcs", "StaticGraph"]


class StaticGraph:
    """A fixed vertex-set graph with an array edge list.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are the integers ``0 … n−1``.
    edges:
        Iterable of ``(u, v)`` pairs.  For undirected graphs each pair is an
        unordered edge (self-loops are rejected, duplicates are collapsed);
        for directed graphs each pair is an arc.
    directed:
        Whether the graph is directed.
    name:
        Optional human-readable name used in ``repr`` and reports.
    """

    __slots__ = (
        "_n",
        "_directed",
        "_name",
        "_tails",
        "_heads",
        "_pair_tails",
        "_pair_heads",
        "_out_start",
        "_out_neighbors",
        "_out_arc_index",
        "_closure",
        "_packed_closure",
        "_edge_arcs",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        *,
        directed: bool = False,
        name: str = "",
    ) -> None:
        self._n = check_non_negative_int(n, "n")
        self._directed = bool(directed)
        pairs = self._normalise_edges(edges)
        self._init(pairs[:, 0].copy(), pairs[:, 1].copy(), name)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_arcs(
        cls,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        *,
        directed: bool,
        name: str,
    ) -> "StaticGraph":
        """The graph of the distinct, loop-free arcs ``tails[i] → heads[i]``.

        The array path of the derived graphs, whose arcs come from a valid
        graph: it skips ``__init__``'s checks and deduplication and only puts
        the arcs in its canonical order (an undirected edge as ``(min, max)``,
        sorted by tail and then head).
        """
        if not directed:
            tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
        order = np.lexsort((heads, tails))
        graph = cls.__new__(cls)
        graph._n = n
        graph._directed = directed
        graph._init(tails.take(order), heads.take(order), name)
        return graph

    def _init(self, pair_tails: np.ndarray, pair_heads: np.ndarray, name: str) -> None:
        """Store the canonical edge columns and derive the arcs and adjacency."""
        self._name = str(name)
        self._pair_tails = pair_tails
        self._pair_heads = pair_heads
        if self._directed:
            self._tails, self._heads = pair_tails, pair_heads
        else:
            # Store both orientations so journey kernels need no special case.
            self._tails = np.concatenate([pair_tails, pair_heads])
            self._heads = np.concatenate([pair_heads, pair_tails])
        self._build_adjacency()
        self._closure = None
        self._packed_closure = None
        self._edge_arcs = None

    def _normalise_edges(self, edges: Iterable[tuple[int, int]]) -> np.ndarray:
        edge_list = list(edges)
        if not edge_list:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(edge_list, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(
                f"edges must be (u, v) pairs, got an array of shape {arr.shape!r}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self._n):
            bad = arr[(arr < 0).any(axis=1) | (arr >= self._n).any(axis=1)][0]
            raise InvalidVertexError(int(bad.max()), self._n)
        if np.any(arr[:, 0] == arr[:, 1]):
            loop = arr[arr[:, 0] == arr[:, 1]][0]
            raise GraphError(f"self-loops are not allowed, got {tuple(loop)!r}")
        if not self._directed:
            arr = np.sort(arr, axis=1)
        # Deduplicate while keeping a deterministic (sorted) order.
        arr = np.unique(arr, axis=0)
        return arr

    def _build_adjacency(self) -> None:
        order = np.argsort(self._tails, kind="stable")
        sorted_tails = self._tails[order]
        self._out_neighbors = self._heads[order]
        self._out_arc_index = order
        counts = np.bincount(sorted_tails, minlength=self._n)
        self._out_start = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._out_start[1:])

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def directed(self) -> bool:
        """Whether the graph was constructed as a digraph."""
        return self._directed

    @property
    def name(self) -> str:
        """Human-readable graph name (may be empty)."""
        return self._name

    @property
    def m(self) -> int:
        """Number of edges (undirected) or arcs (directed)."""
        return int(self._pair_tails.size)

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (``2·m`` for undirected graphs)."""
        return int(self._tails.size)

    @property
    def arc_tails(self) -> np.ndarray:
        """Tail vertex of every stored arc (read-only view)."""
        view = self._tails.view()
        view.flags.writeable = False
        return view

    @property
    def arc_heads(self) -> np.ndarray:
        """Head vertex of every stored arc (read-only view)."""
        view = self._heads.view()
        view.flags.writeable = False
        return view

    @property
    def reachability_closure(self) -> np.ndarray:
        """Boolean ``(n, n)`` closure ``R[s, v]`` = "a path from ``s`` to ``v``".

        Computed on first access and kept, read-only: the graph cannot change
        after construction, so the closure never goes stale, and every
        network over this graph object shares it.  Two threads racing to
        fill it compute the same array, so the race needs no lock.
        """
        if self._closure is None:
            closure = _reachability_closure(self._n, self._tails, self._heads)
            closure.flags.writeable = False
            self._closure = closure
        return self._closure

    @property
    def packed_reachability_closure(self) -> np.ndarray:
        """The closure transposed and packed in the sweep kernels' bitset layout.

        An ``(n, ⌈n/64⌉)`` ``uint64`` array: row ``v`` holds bit ``s`` when a
        path from ``s`` to ``v`` exists (column ``v`` of
        :attr:`reachability_closure`), bit ``7 − s % 8`` of byte ``s // 8``
        of the row's ``uint8`` view (the ``np.packbits`` order), with the
        padding bits clear.  That is the layout of an all-pairs sweep's
        ``reached`` bitset, so a reachability test compares with it, and
        stops early against it, without unpacking.  Cached and read-only
        like :attr:`reachability_closure`, and filled the same way without
        a lock.
        """
        if self._packed_closure is None:
            n = self._n
            packed = np.zeros((n, -(-n // 64)), dtype=np.uint64)
            packed.view(np.uint8)[:, : -(-n // 8)] = np.packbits(
                self.reachability_closure.T, axis=1
            )
            packed.flags.writeable = False
            self._packed_closure = packed
        return self._packed_closure

    @property
    def edge_pairs(self) -> np.ndarray:
        """Canonical ``(m, 2)`` edge array (one row per undirected edge / arc)."""
        return np.stack([self._pair_tails, self._pair_heads], axis=1)

    @property
    def pair_tails(self) -> np.ndarray:
        """Column 0 of :attr:`edge_pairs`, stored once per graph (read-only view)."""
        view = self._pair_tails.view()
        view.flags.writeable = False
        return view

    @property
    def pair_heads(self) -> np.ndarray:
        """Column 1 of :attr:`edge_pairs`, stored once per graph (read-only view)."""
        view = self._pair_heads.view()
        view.flags.writeable = False
        return view

    @property
    def edge_arcs(self) -> "EdgeArcs":
        """The arcs listed edge by edge: the time arcs of one label per edge.

        Built on first access and kept, read-only, like
        :attr:`reachability_closure`, and filled the same way without a
        lock: every network over this graph object that gives each edge
        exactly one label shares these arrays and stores only its labels.
        """
        if self._edge_arcs is None:
            self._edge_arcs = EdgeArcs(
                self._n, self.pair_tails, self.pair_heads, self._directed
            )
        return self._edge_arcs

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def vertices(self) -> range:
        """Return the vertex index range ``0 … n−1``."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over canonical edges as Python ``(u, v)`` tuples."""
        for u, v in zip(self._pair_tails.tolist(), self._pair_heads.tolist()):
            yield (u, v)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Iterate over all stored arcs (both directions for undirected graphs)."""
        for u, v in zip(self._tails.tolist(), self._heads.tolist()):
            yield (u, v)

    def has_vertex(self, v: int) -> bool:
        """Whether ``v`` is a valid vertex index."""
        return 0 <= v < self._n

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``(u, v)`` (directed) or edge ``{u, v}`` exists."""
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        return bool(np.any(self.out_neighbors(u) == v))

    def out_neighbors(self, u: int) -> np.ndarray:
        """Out-neighbours of ``u`` as a read-only array."""
        if not self.has_vertex(u):
            raise InvalidVertexError(u, self._n)
        lo, hi = self._out_start[u], self._out_start[u + 1]
        view = self._out_neighbors[lo:hi].view()
        view.flags.writeable = False
        return view

    def out_arcs(self, u: int) -> np.ndarray:
        """Indices (into the arc arrays) of arcs leaving ``u``."""
        if not self.has_vertex(u):
            raise InvalidVertexError(u, self._n)
        lo, hi = self._out_start[u], self._out_start[u + 1]
        view = self._out_arc_index[lo:hi].view()
        view.flags.writeable = False
        return view

    def degree(self, u: int) -> int:
        """Out-degree of ``u`` (equals the undirected degree for undirected graphs)."""
        if not self.has_vertex(u):
            raise InvalidVertexError(u, self._n)
        return int(self._out_start[u + 1] - self._out_start[u])

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self._out_start)

    def edge_index(self, u: int, v: int) -> int:
        """Return the canonical edge index of ``{u, v}`` (or arc ``(u, v)``).

        Raises
        ------
        InvalidEdgeError
            If the edge does not exist.
        """
        if not self._directed and u > v:
            u, v = v, u
        mask = (self._pair_tails == u) & (self._pair_heads == v)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise InvalidEdgeError((u, v))
        return int(idx[0])

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def to_directed(self) -> "StaticGraph":
        """Return the directed version (each undirected edge becomes two arcs)."""
        if self._directed:
            return self
        return StaticGraph._from_arcs(
            self._n, self._tails, self._heads, directed=True, name=self._name
        )

    def reverse(self) -> "StaticGraph":
        """Return the graph with every arc reversed (no-op for undirected)."""
        if not self._directed:
            return self
        return StaticGraph._from_arcs(
            self._n, self._heads, self._tails, directed=True, name=self._name
        )

    def subgraph(self, vertices: Sequence[int]) -> "StaticGraph":
        """Return the induced subgraph on ``vertices`` (re-indexed from 0)."""
        keep = np.zeros(self._n, dtype=bool)
        vert_arr = np.asarray(list(vertices), dtype=np.int64)
        if vert_arr.size and (vert_arr.min() < 0 or vert_arr.max() >= self._n):
            raise InvalidVertexError(int(vert_arr.max()), self._n)
        keep[vert_arr] = True
        remap = -np.ones(self._n, dtype=np.int64)
        remap[vert_arr] = np.arange(vert_arr.size)
        mask = keep[self._pair_tails] & keep[self._pair_heads]
        return StaticGraph._from_arcs(
            int(vert_arr.size),
            remap[self._pair_tails[mask]],
            remap[self._pair_heads[mask]],
            directed=self._directed,
            name=self._name,
        )

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        kind = "digraph" if self._directed else "graph"
        label = f" {self._name!r}" if self._name else ""
        return f"StaticGraph({kind}{label}, n={self._n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._directed == other._directed
            and np.array_equal(self.edge_pairs, other.edge_pairs)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._directed, self.edge_pairs.tobytes()))


class EdgeArcs:
    """A graph's arcs listed edge by edge, and their stable sort orders.

    Edge ``i`` of a digraph is arc ``i``.  Edge ``i`` of an undirected graph,
    ``{u, v}`` with ``u < v``, gives arc ``2i`` (``u → v``) and arc ``2i + 1``
    (``v → u``).  :class:`~repro.core.temporal_graph.TemporalGraph` lists the
    time arcs of each label the same way, so these are the time arcs of a
    network with exactly one label per edge, without the labels.  Every
    array is read-only.

    Attributes
    ----------
    edge_index:
        ``0 … m−1``, the edge of each label of such a network.
    tails, heads:
        Tail and head of every arc; a digraph's are its own
        :attr:`StaticGraph.pair_tails` and :attr:`StaticGraph.pair_heads`.
    arc_edge_index:
        The edge of every arc; ``edge_index`` itself for a digraph.
    """

    __slots__ = (
        "edge_index",
        "tails",
        "heads",
        "arc_edge_index",
        "_vertex_type",
        "_head_order",
        "_tail_order",
    )

    def __init__(
        self, n: int, pair_tails: np.ndarray, pair_heads: np.ndarray, directed: bool
    ) -> None:
        self.edge_index = _readonly(np.arange(pair_tails.size, dtype=np.int64))
        if directed:
            self.tails, self.heads = pair_tails, pair_heads
            self.arc_edge_index = self.edge_index
        else:
            self.tails = _readonly(np.stack([pair_tails, pair_heads], axis=1).ravel())
            self.heads = _readonly(np.stack([pair_heads, pair_tails], axis=1).ravel())
            self.arc_edge_index = _readonly(np.repeat(self.edge_index, 2))
        # Every vertex id fits this type; numpy radix-sorts 8- and 16-bit keys.
        self._vertex_type = np.min_scalar_type(max(n - 1, 0))
        self._head_order: np.ndarray | None = None
        self._tail_order: np.ndarray | None = None

    @property
    def head_order(self) -> np.ndarray:
        """``np.argsort(heads, kind="stable")``, a forward layout's first sort, kept."""
        if self._head_order is None:
            self._head_order = self._stable_order(self.heads)
        return self._head_order

    @property
    def tail_order(self) -> np.ndarray:
        """``np.argsort(tails, kind="stable")``, a reverse layout's first sort, kept."""
        if self._tail_order is None:
            self._tail_order = self._stable_order(self.tails)
        return self._tail_order

    def _stable_order(self, vertices: np.ndarray) -> np.ndarray:
        return _readonly(np.argsort(vertices.astype(self._vertex_type), kind="stable"))


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _reachability_closure(
    n: int, tails: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """The reachability closure of the arcs ``tails[i] → heads[i]`` on ``n`` vertices.

    All sources are advanced together: one dense adjacency matrix and one
    matmul per BFS level (float32, so the product runs on BLAS instead of
    NumPy's scalar integer loops), instead of ``n`` per-source Python-level
    BFS runs.  Levels are bounded by the diameter, so a clique finishes in
    one step.
    """
    adjacency = np.zeros((n, n), dtype=np.float32)
    adjacency[tails, heads] = 1.0
    reach = np.eye(n, dtype=bool)
    frontier = reach
    while True:
        new = (frontier.astype(np.float32) @ adjacency > 0.0) & ~reach
        if not new.any():
            return reach
        reach |= new
        frontier = new
