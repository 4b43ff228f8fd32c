"""The :class:`TemporalGraph`: an ephemeral temporal network ``(G, L)``.

Definition 1 of the paper: a temporal network on a (di)graph ``G = (V, E)`` is
a pair ``(G, L)`` where ``L = {L_e ⊆ ℕ : e ∈ E}`` assigns a set of discrete
time labels to every edge.  When every ``L_e ⊆ {1, …, a}`` the network is
*ephemeral* with lifetime ``a``.

Internally the class keeps three synchronized representations:

* a per-edge mapping ``edge index → sorted tuple of labels`` for API-level
  queries (``labels_of``, ``total_labels``, …);
* flat *time-arc arrays* ``(tails, heads, labels)`` — one entry per
  availability of each arc — used by the single-source journey kernels.  For
  an undirected underlying graph a label on edge ``{u, v}`` produces the two
  time arcs ``(u, v, l)`` and ``(v, u, l)``, matching the paper's convention
  that an undirected edge can be crossed in either direction at its label;
* a lazily built, cached :class:`~repro.core.timearc_csr.TimeArcCSR` — the
  label-grouped CSR layout (arcs sorted by ``(label, head)`` with row offsets
  per label value) that backs every batched kernel, most importantly
  :func:`repro.core.journeys.earliest_arrival_matrix`.  The cache means the
  ``O(A log A)`` sort is paid once per network, not once per sweep; it is
  safe because the label data is immutable after construction.

Random label models sample a dense ``(m, r)`` label matrix and go through
:meth:`TemporalGraph.from_label_matrix`, which builds the time-arc arrays with
vectorised numpy operations and defers the per-edge tuple view until an
API-level query actually asks for it.  Both constructors produce identical
networks — same time-arc arrays, same CSR layout, same label tuples — so every
kernel and every Monte-Carlo result is bit-for-bit independent of which path
built the instance (``tests/test_labeling.py`` pins this).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import InvalidEdgeError, LabelingError, LifetimeError
from ..graphs.static_graph import StaticGraph
from ..types import TimeEdge
from ..utils.validation import check_positive_int

__all__ = ["TemporalGraph"]


class TemporalGraph:
    """An ephemeral temporal network: a static graph plus labels per edge.

    Parameters
    ----------
    graph:
        The underlying static (di)graph.
    labels:
        Either a mapping from canonical edge index (``0 … m−1``, the row index
        into ``graph.edge_pairs``) to an iterable of labels, or a sequence of
        length ``m`` whose ``i``-th entry is the label iterable of edge ``i``.
        Edges may have zero labels (they are then never available).
    lifetime:
        The lifetime ``a``.  Defaults to the largest assigned label (or
        ``graph.n`` if there are no labels at all, which matches the
        "normalized" convention of the paper).

    Raises
    ------
    LifetimeError
        If any label falls outside ``[1, lifetime]``.
    LabelingError
        If the label container is malformed.
    """

    __slots__ = (
        "_graph",
        "_lifetime",
        "_edge_labels",
        "_el_edge_index",
        "_el_labels",
        "_ta_tails",
        "_ta_heads",
        "_ta_labels",
        "_ta_edge_index",
        "_timearc_csr",
        "_reverse_timearc_csr",
    )

    def __init__(
        self,
        graph: StaticGraph,
        labels: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
        *,
        lifetime: int | None = None,
    ) -> None:
        self._graph = graph
        self._edge_labels = self._normalise_labels(graph, labels)
        self._el_edge_index = None
        self._el_labels = None

        max_label = 0
        for edge_labels in self._edge_labels:
            if edge_labels:
                max_label = max(max_label, edge_labels[-1])
        if lifetime is None:
            lifetime = max_label if max_label > 0 else max(graph.n, 1)
        self._lifetime = check_positive_int(lifetime, "lifetime")
        if max_label > self._lifetime:
            raise LifetimeError(max_label, self._lifetime)

        self._build_time_arcs()
        self._timearc_csr = None
        self._reverse_timearc_csr = None

    @classmethod
    def from_label_matrix(
        cls,
        graph: StaticGraph,
        label_matrix: np.ndarray,
        *,
        lifetime: int | None = None,
    ) -> "TemporalGraph":
        """Build a temporal network from a dense ``(m, r)`` label draw matrix.

        This is the vectorised fast path used by the random label models:
        row ``i`` of ``label_matrix`` holds the ``r`` (possibly duplicate)
        labels drawn for canonical edge ``i``.  Duplicates are collapsed —
        only the label *set* matters for journeys — and the flat time-arc
        arrays are produced with array operations instead of the per-edge
        Python loop of the mapping constructor.  The per-edge tuple view
        (:meth:`labels_of` and friends) is materialised lazily on first use.

        The resulting network is indistinguishable from
        ``TemporalGraph(graph, [tuple(sorted(set(row))) for row in matrix])``:
        identical time-arc arrays (same order), identical CSR layout,
        identical label tuples, so kernels and Monte-Carlo pipelines are
        bit-compatible across the two construction paths.

        Parameters
        ----------
        graph:
            The underlying static (di)graph.
        label_matrix:
            Integer array of shape ``(m, r)`` (or ``(m,)`` for one label per
            edge); every entry must lie in ``[1, lifetime]``.
        lifetime:
            The lifetime ``a``; defaults to the largest drawn label (or
            ``graph.n`` when the matrix is empty).
        """
        matrix = np.asarray(label_matrix, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[:, np.newaxis]
        if matrix.ndim != 2 or matrix.shape[0] != graph.m:
            raise LabelingError(
                f"expected a label matrix with one row per edge ({graph.m} "
                f"edges), got shape {matrix.shape!r}"
            )
        max_label = 0
        if matrix.size:
            min_label = int(matrix.min())
            if min_label < 1:
                raise LabelingError(
                    f"labels must be positive integers, got {min_label}"
                )
            max_label = int(matrix.max())
        if lifetime is None:
            lifetime = max_label if max_label > 0 else max(graph.n, 1)
        lifetime = check_positive_int(lifetime, "lifetime")
        if max_label > lifetime:
            raise LifetimeError(max_label, lifetime)

        # Collapse duplicate draws per edge.  Encoding (edge, label) pairs as
        # edge·(a+1)+label keeps np.unique sorting them by edge then label —
        # exactly the enumeration order of the mapping constructor's loops.
        m, r = matrix.shape
        keys = np.unique(
            np.repeat(np.arange(m, dtype=np.int64), r) * np.int64(lifetime + 1)
            + matrix.ravel()
        )
        el_edges = keys // np.int64(lifetime + 1)
        el_labels = keys - el_edges * np.int64(lifetime + 1)

        pairs = graph.edge_pairs
        u = pairs[el_edges, 0] if el_edges.size else np.empty(0, np.int64)
        v = pairs[el_edges, 1] if el_edges.size else np.empty(0, np.int64)

        self = cls.__new__(cls)
        self._graph = graph
        self._lifetime = lifetime
        self._edge_labels = None
        self._el_edge_index = el_edges
        self._el_labels = el_labels
        if graph.directed:
            self._ta_tails = u
            self._ta_heads = v
            self._ta_labels = el_labels
            self._ta_edge_index = el_edges
        else:
            # Interleave the two arc directions of every undirected edge so
            # the arrays match the mapping constructor entry for entry.
            self._ta_tails = np.stack([u, v], axis=1).ravel()
            self._ta_heads = np.stack([v, u], axis=1).ravel()
            self._ta_labels = np.repeat(el_labels, 2)
            self._ta_edge_index = np.repeat(el_edges, 2)
        self._timearc_csr = None
        self._reverse_timearc_csr = None
        return self

    def _edge_label_tuples(self) -> list[tuple[int, ...]]:
        """Per-edge sorted label tuples, materialised on demand.

        The mapping constructor builds this list eagerly; the
        :meth:`from_label_matrix` fast path defers it until an API-level
        query needs per-edge tuples, keeping the Monte-Carlo hot loop (which
        only touches the flat arrays and the CSR) free of per-edge Python
        work.
        """
        if self._edge_labels is None:
            if self.m == 0:
                self._edge_labels = []
            else:
                counts = np.bincount(self._el_edge_index, minlength=self.m)
                chunks = np.split(self._el_labels, np.cumsum(counts)[:-1])
                self._edge_labels = [tuple(chunk.tolist()) for chunk in chunks]
        return self._edge_labels

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalise_labels(
        graph: StaticGraph,
        labels: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    ) -> list[tuple[int, ...]]:
        m = graph.m
        per_edge: list[tuple[int, ...]] = [() for _ in range(m)]
        if isinstance(labels, Mapping):
            items = labels.items()
        else:
            seq = list(labels)
            if len(seq) != m:
                raise LabelingError(
                    f"expected one label collection per edge ({m} edges), got "
                    f"{len(seq)} collections"
                )
            items = enumerate(seq)
        for edge_index, edge_labels in items:
            edge_index = int(edge_index)
            if not 0 <= edge_index < m:
                raise LabelingError(
                    f"edge index {edge_index} out of range for a graph with {m} edges"
                )
            values = sorted({int(label) for label in edge_labels})
            for value in values:
                if value < 1:
                    raise LabelingError(
                        f"labels must be positive integers, got {value} on edge "
                        f"{edge_index}"
                    )
            per_edge[edge_index] = tuple(values)
        return per_edge

    def _build_time_arcs(self) -> None:
        pairs = self._graph.edge_pairs
        tails: list[int] = []
        heads: list[int] = []
        labels: list[int] = []
        edge_idx: list[int] = []
        for index, edge_labels in enumerate(self._edge_labels):
            if not edge_labels:
                continue
            u, v = int(pairs[index, 0]), int(pairs[index, 1])
            for label in edge_labels:
                tails.append(u)
                heads.append(v)
                labels.append(label)
                edge_idx.append(index)
                if not self._graph.directed:
                    tails.append(v)
                    heads.append(u)
                    labels.append(label)
                    edge_idx.append(index)
        self._ta_tails = np.asarray(tails, dtype=np.int64)
        self._ta_heads = np.asarray(heads, dtype=np.int64)
        self._ta_labels = np.asarray(labels, dtype=np.int64)
        self._ta_edge_index = np.asarray(edge_idx, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> StaticGraph:
        """The underlying static (di)graph."""
        return self._graph

    @property
    def n(self) -> int:
        """Number of vertices of the underlying graph."""
        return self._graph.n

    @property
    def m(self) -> int:
        """Number of edges of the underlying graph."""
        return self._graph.m

    @property
    def directed(self) -> bool:
        """Whether the underlying graph is directed."""
        return self._graph.directed

    @property
    def lifetime(self) -> int:
        """The lifetime ``a``: no edge is available after time ``a``."""
        return self._lifetime

    @property
    def num_time_arcs(self) -> int:
        """Number of directed time arcs (availability events × directions)."""
        return int(self._ta_labels.size)

    @property
    def total_labels(self) -> int:
        """Total number of labels over all edges: ``Σ_e |L_e|`` (the paper's cost)."""
        if self._edge_labels is None:
            return int(self._el_labels.size)
        return int(sum(len(labels) for labels in self._edge_labels))

    @property
    def is_normalized(self) -> bool:
        """Whether the network is *normalized*: lifetime equals ``n``."""
        return self._lifetime == self.n

    @property
    def time_arc_tails(self) -> np.ndarray:
        """Tail of every time arc (read-only)."""
        view = self._ta_tails.view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_heads(self) -> np.ndarray:
        """Head of every time arc (read-only)."""
        view = self._ta_heads.view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_labels(self) -> np.ndarray:
        """Label of every time arc (read-only)."""
        view = self._ta_labels.view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_edge_index(self) -> np.ndarray:
        """Canonical edge index of every time arc (read-only)."""
        view = self._ta_edge_index.view()
        view.flags.writeable = False
        return view

    @property
    def timearc_csr(self):
        """The label-grouped CSR layout of the time arcs, built lazily.

        Returns
        -------
        repro.core.timearc_csr.TimeArcCSR
            Immutable CSR structure shared by all batched kernels.  Building
            it costs ``O(A log A)`` on first access and nothing afterwards;
            the label data cannot change after construction, so the cache
            never goes stale.
        """
        if self._timearc_csr is None:
            from .timearc_csr import build_timearc_csr

            self._timearc_csr = build_timearc_csr(self)
        return self._timearc_csr

    @property
    def reverse_timearc_csr(self):
        """The time-reversed CSR layout of the time arcs, built lazily.

        Returns
        -------
        repro.core.timearc_csr.TimeArcCSR
            The forward layout of the arcs flipped, with every label ``l``
            mapped to ``lifetime + 1 − l``: the reverse (latest-departure)
            sweeps run the forward kernels over it.  The two layouts are
            independent caches: a forward-only workload never pays for this
            sort, and vice versa.
        """
        if self._reverse_timearc_csr is None:
            from .reverse_timearc_csr import build_reverse_timearc_csr

            self._reverse_timearc_csr = build_reverse_timearc_csr(self)
        return self._reverse_timearc_csr

    # ------------------------------------------------------------------ #
    # label queries
    # ------------------------------------------------------------------ #
    def labels_of_edge_index(self, edge_index: int) -> tuple[int, ...]:
        """Labels of the canonical edge with the given index (sorted tuple)."""
        if not 0 <= edge_index < self.m:
            raise LabelingError(
                f"edge index {edge_index} out of range for a graph with {self.m} edges"
            )
        return self._edge_label_tuples()[edge_index]

    def labels_of(self, u: int, v: int) -> tuple[int, ...]:
        """Labels of the edge ``{u, v}`` (or arc ``(u, v)`` for digraphs)."""
        try:
            index = self._graph.edge_index(u, v)
        except InvalidEdgeError:
            raise
        return self._edge_label_tuples()[index]

    def label_count_per_edge(self) -> np.ndarray:
        """Number of labels on each canonical edge, as an ``int64`` array."""
        if self._edge_labels is None:
            return np.bincount(self._el_edge_index, minlength=self.m).astype(np.int64)
        return np.asarray([len(labels) for labels in self._edge_labels], dtype=np.int64)

    def edge_label_items(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Iterate over ``((u, v), labels)`` pairs for every canonical edge."""
        pairs = self._graph.edge_pairs
        for index, labels in enumerate(self._edge_label_tuples()):
            yield (int(pairs[index, 0]), int(pairs[index, 1])), labels

    def time_edges(self) -> Iterator[TimeEdge]:
        """Iterate over all directed time arcs as :class:`TimeEdge` objects."""
        for u, v, label in zip(
            self._ta_tails.tolist(), self._ta_heads.tolist(), self._ta_labels.tolist()
        ):
            yield TimeEdge(u, v, label)

    def has_time_edge(self, u: int, v: int, label: int) -> bool:
        """Whether the arc ``(u, v)`` is available exactly at ``label``."""
        mask = (self._ta_tails == u) & (self._ta_heads == v) & (self._ta_labels == label)
        return bool(mask.any())

    # ------------------------------------------------------------------ #
    # derived networks
    # ------------------------------------------------------------------ #
    def restricted_to_max_label(self, max_label: int) -> "TemporalGraph":
        """Return the temporal graph keeping only labels ``<= max_label``.

        This is the edge-induced subnetwork used in the Theorem 5 argument
        ("consider only the arcs with labels up to k").
        """
        max_label = check_positive_int(max_label, "max_label")
        new_labels = [
            tuple(label for label in labels if label <= max_label)
            for labels in self._edge_label_tuples()
        ]
        return TemporalGraph(self._graph, new_labels, lifetime=self._lifetime)

    def time_reversed(self) -> "TemporalGraph":
        """Return the time-reversed network: arcs flipped, labels mirrored.

        Every arc ``(u, v)`` becomes ``(v, u)`` (a no-op for undirected
        graphs, which already allow both directions) and every label ``l``
        becomes ``a + 1 − l`` where ``a`` is the lifetime.  A journey
        ``u → v`` with labels ``l_1 < … < l_k`` maps to a journey ``v → u``
        with labels ``a + 1 − l_k < … < a + 1 − l_1``, so earliest arrivals
        in the reversal are latest departures in the original (and vice
        versa) — the duality pinned by ``tests/test_reverse_sweep.py``.
        Applying :meth:`time_reversed` twice returns an equal network.
        """
        a = self._lifetime
        mapped = [
            tuple(a + 1 - label for label in reversed(labels))
            for labels in self._edge_label_tuples()
        ]
        if not self.directed:
            return TemporalGraph(self._graph, mapped, lifetime=a)
        reversed_graph = self._graph.reverse()
        # Map each original edge (u, v) to the canonical index its flipped
        # twin (v, u) received in the reversed graph (whose edge list is
        # sorted by (tail, head), so an encoded-key searchsorted lands it).
        pairs = self._graph.edge_pairs
        reversed_pairs = reversed_graph.edge_pairs
        keys = reversed_pairs[:, 0] * np.int64(self.n) + reversed_pairs[:, 1]
        flipped = pairs[:, 1] * np.int64(self.n) + pairs[:, 0]
        position = np.searchsorted(keys, flipped)
        reversed_labels: list[tuple[int, ...]] = [()] * self.m
        for index, pos in enumerate(position.tolist()):
            reversed_labels[pos] = mapped[index]
        return TemporalGraph(reversed_graph, reversed_labels, lifetime=a)

    def with_lifetime(self, lifetime: int) -> "TemporalGraph":
        """Return a copy with a different declared lifetime (labels unchanged)."""
        return TemporalGraph(self._graph, list(self._edge_label_tuples()), lifetime=lifetime)

    def underlying_edges_with_labels(self) -> StaticGraph:
        """Static graph keeping only the edges that received at least one label."""
        pairs = self._graph.edge_pairs
        keep = [i for i, labels in enumerate(self._edge_label_tuples()) if labels]
        edges = [tuple(pairs[i]) for i in keep]
        return StaticGraph(
            self.n,
            edges,
            directed=self.directed,
            name=f"{self._graph.name}+labels" if self._graph.name else "",
        )

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={self.n}, m={self.m}, lifetime={self._lifetime}, "
            f"total_labels={self.total_labels})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self._graph == other._graph
            and self._lifetime == other._lifetime
            and self._edge_label_tuples() == other._edge_label_tuples()
        )

    def __hash__(self) -> int:
        return hash((self._graph, self._lifetime, tuple(self._edge_label_tuples())))
