"""The :class:`TemporalGraph`: an ephemeral temporal network ``(G, L)``.

Definition 1 of the paper: a temporal network on a (di)graph ``G = (V, E)`` is
a pair ``(G, L)`` where ``L = {L_e ⊆ ℕ : e ∈ E}`` assigns a set of discrete
time labels to every edge.  When every ``L_e ⊆ {1, …, a}`` the network is
*ephemeral* with lifetime ``a``.

The class stores ``L`` once, as two parallel edge-major ``int64`` arrays: one
entry per ``(edge, label)`` pair, sorted by canonical edge index and then by
label.  Everything else is derived from them:

* flat *time-arc arrays* ``(tails, heads, labels)`` — one entry per
  availability of each arc, built on first use — from which the layouts
  below are built and the single-source journey kernels read.  For
  an undirected underlying graph a label on edge ``{u, v}`` produces the two
  time arcs ``(u, v, l)`` and ``(v, u, l)``, interleaved per label, matching
  the paper's convention that an undirected edge can be crossed in either
  direction at its label;
* lazily built, cached :class:`~repro.core.timearc_csr.TimeArcCSR` layouts —
  the label-grouped CSR (arcs sorted by ``(label, head)`` with row offsets
  per label value) that backs every batched kernel, most importantly
  :func:`repro.core.journeys.earliest_arrival_matrix`, and its time-reversed
  twin.  Each direction caches the longest layout built so far: a sweep
  starts from a prefix built through a label bound and grows it only when
  it runs past the bound, so a sweep that saturates early never sorts the
  label groups it does not reach.  The caches mean the sort is paid once per
  network, not once per sweep; they are safe because the label data is
  immutable;
* a lazy per-edge tuple view for the label queries (``labels_of``,
  ``edge_label_items``, …), built only when one of them asks.

Both constructors fill the same arrays through one initializer: the mapping
constructor validates and flattens its per-edge input, and
:meth:`TemporalGraph.from_label_matrix` — the path of the random label
models — collapses duplicate draws by sorting each row of a dense ``(m, r)``
matrix.  Derived networks, ``==`` and ``hash`` work on the arrays too, so
every kernel and every Monte-Carlo result is bit-for-bit independent of which
path built the instance (``tests/test_label_fastpath.py`` and
``tests/test_label_storage.py`` pin this).

A network with exactly one label on every edge — Definition 4's normalized
U-RTN, drawn by most experiments and every service query — stores only its
labels, whichever constructor built it.  Its edge column is ``0 … m−1`` and
its time arcs list the graph's edges in order, so it takes both from the
graph's :attr:`~repro.graphs.static_graph.StaticGraph.edge_arcs`: read-only
arrays that every such network over the same graph object shares, beside the
head and tail orders its layout builds start from
(``tests/test_shared_arcs.py`` pins this form).
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import LabelingError, LifetimeError
from ..graphs.static_graph import StaticGraph
from ..types import TimeEdge
from ..utils.validation import check_positive_int

__all__ = ["TemporalGraph"]

#: Guards the compare-and-store of the cached layouts, which the service's
#: request threads share through their handles.
_LAYOUT_LOCK = threading.Lock()


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
        "_el_edge_index",
        "_el_labels",
        "_edge_labels",
        "_time_arcs",
        "_shared_arcs",
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
        self._init(graph, *self._flatten_labels(graph, labels), lifetime)

    @classmethod
    def from_label_matrix(
        cls,
        graph: StaticGraph,
        label_matrix: np.ndarray,
        *,
        lifetime: int | None = None,
    ) -> "TemporalGraph":
        """Build a temporal network from a dense ``(m, r)`` label draw matrix.

        This is the vectorised path used by the random label models: row
        ``i`` of ``label_matrix`` holds the ``r`` (possibly duplicate) labels
        drawn for canonical edge ``i``.  Duplicates are collapsed — only the
        label *set* matters for journeys — by sorting each row, which lists
        the kept labels by edge and then label: the stored form itself, with
        no per-edge Python work.  A one-column matrix has nothing to collapse:
        the network stores a copy of the column and shares its edge and arc
        columns with the graph, as does a matrix whose every row holds one
        distinct label.

        The resulting network equals
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
        if matrix.shape[1] == 1:
            # One label per edge: nothing to collapse, and the copy keeps the
            # caller's matrix out of the network.
            edges = graph.edge_arcs.edge_index
            return cls._from_arrays(graph, edges, matrix[:, 0].copy(), lifetime)
        # Keep the entries of each sorted row that differ from their left
        # neighbour; read row by row, they list edge then label.
        rows = np.sort(matrix, axis=1)
        keep = np.empty(rows.shape, dtype=bool)
        keep[:, :1] = True
        np.not_equal(rows[:, 1:], rows[:, :-1], out=keep[:, 1:])
        edges = np.repeat(
            np.arange(graph.m, dtype=np.int64), np.count_nonzero(keep, axis=1)
        )
        return cls._from_arrays(graph, edges, rows[keep], lifetime)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _init(
        self,
        graph: StaticGraph,
        edges: np.ndarray,
        labels: np.ndarray,
        lifetime: int | None,
    ) -> None:
        """The one initializer: ``(edge, label)`` arrays sorted by edge, then label.

        Checks the labels against the lifetime (defaulting it to the largest
        label, or ``graph.n`` without labels).  When every edge has exactly
        one label, the edge column is the graph's
        :attr:`~repro.graphs.static_graph.StaticGraph.edge_arcs` one, shared
        by every such network over the graph, and only ``labels`` is stored.
        The time arcs are derived on first use (:meth:`_arcs`).
        """
        max_label = 0
        if labels.size:
            min_label = int(labels.min())
            if min_label < 1:
                edge = int(edges[np.argmax(labels < 1)])
                raise LabelingError(
                    f"labels must be positive integers, got {min_label} on edge {edge}"
                )
            max_label = int(labels.max())
        if lifetime is None:
            lifetime = max_label if max_label > 0 else max(graph.n, 1)
        lifetime = check_positive_int(lifetime, "lifetime")
        if max_label > lifetime:
            raise LifetimeError(max_label, lifetime)

        self._graph = graph
        self._lifetime = lifetime
        self._edge_labels = None
        arcs = graph.edge_arcs if edges.size == graph.m else None
        if arcs is not None and (
            edges is arcs.edge_index or np.array_equal(edges, arcs.edge_index)
        ):
            # One label per edge: the columns depend on the graph alone.
            edges = arcs.edge_index
        else:
            arcs = None
        self._shared_arcs = arcs
        self._el_edge_index = edges
        self._el_labels = labels
        self._time_arcs = None
        self._timearc_csr = None
        self._reverse_timearc_csr = None

    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(tails, heads, labels, edge index)`` of the time arcs, built on first use.

        They list the stored entries in order, an undirected edge's two
        directions interleaved per label; a one-label network takes all but
        the labels from its graph's edge arcs.  Two threads racing to fill
        them compute equal arrays, so the race needs no lock.
        """
        if self._time_arcs is None:
            graph, edges, labels = self._graph, self._el_edge_index, self._el_labels
            arcs = self._shared_arcs
            if arcs is not None:
                tails, heads, arc_edges = arcs.tails, arcs.heads, arcs.arc_edge_index
            else:
                u = graph.pair_tails.take(edges)
                v = graph.pair_heads.take(edges)
                if graph.directed:
                    tails, heads, arc_edges = u, v, edges
                else:
                    # Both directions of an undirected edge, interleaved per label.
                    tails = np.stack([u, v], axis=1).ravel()
                    heads = np.stack([v, u], axis=1).ravel()
                    arc_edges = np.repeat(edges, 2)
            if not graph.directed:
                labels = np.repeat(labels, 2)
            self._time_arcs = (tails, heads, labels, arc_edges)
        return self._time_arcs

    @classmethod
    def _from_arrays(
        cls,
        graph: StaticGraph,
        edges: np.ndarray,
        labels: np.ndarray,
        lifetime: int | None,
    ) -> "TemporalGraph":
        """A network built from ``(edge, label)`` arrays already in stored order."""
        network = cls.__new__(cls)
        network._init(graph, edges, labels, lifetime)
        return network

    @staticmethod
    def _flatten_labels(
        graph: StaticGraph,
        labels: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(edge, label)`` arrays of per-edge label input (sets, sorted)."""
        m = graph.m
        per_edge: list[Sequence[int]] = [()] * m
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
            per_edge[edge_index] = sorted({int(label) for label in edge_labels})
        edges = np.repeat(np.arange(m, dtype=np.int64), [len(v) for v in per_edge])
        flat = chain.from_iterable(per_edge)
        return edges, np.fromiter(flat, dtype=np.int64, count=edges.size)

    def _edge_label_tuples(self) -> list[tuple[int, ...]]:
        """Per-edge sorted label tuples, built on the first label query."""
        if self._edge_labels is None:
            labels = self._el_labels.tolist()
            ends = np.cumsum(self.label_count_per_edge()).tolist()
            self._edge_labels = [
                tuple(labels[start:end]) for start, end in zip([0] + ends, ends)
            ]
        return self._edge_labels

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
        return int(self._el_labels.size) * (1 if self.directed else 2)

    @property
    def total_labels(self) -> int:
        """Total number of labels over all edges: ``Σ_e |L_e|`` (the paper's cost)."""
        return int(self._el_labels.size)

    @property
    def is_normalized(self) -> bool:
        """Whether the network is *normalized*: lifetime equals ``n``."""
        return self._lifetime == self.n

    @property
    def time_arc_tails(self) -> np.ndarray:
        """Tail of every time arc (read-only)."""
        view = self._arcs()[0].view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_heads(self) -> np.ndarray:
        """Head of every time arc (read-only)."""
        view = self._arcs()[1].view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_labels(self) -> np.ndarray:
        """Label of every time arc (read-only)."""
        view = self._arcs()[2].view()
        view.flags.writeable = False
        return view

    @property
    def time_arc_edge_index(self) -> np.ndarray:
        """Canonical edge index of every time arc (read-only)."""
        view = self._arcs()[3].view()
        view.flags.writeable = False
        return view

    @property
    def timearc_csr(self):
        """The whole label-grouped CSR layout of the time arcs, built lazily.

        Returns
        -------
        repro.core.timearc_csr.TimeArcCSR
            Immutable CSR structure over every time arc.  Building it costs
            two stable ``O(A)`` radix sorts (``O(A log A)`` once a vertex id
            or label needs more than 16 bits); the label data cannot change
            after construction, so the cache never goes stale.  The sweeps
            start from a prefix of it (:meth:`_layout`); reading this
            property grows the cached layout to the whole one.  With
            telemetry active each build records ``csr.builds.forward``,
            ``csr.build_ms.forward`` and ``csr.arcs.forward``.
        """
        return self._layout(reverse=False)

    @property
    def reverse_timearc_csr(self):
        """The whole time-reversed CSR layout of the time arcs, built lazily.

        Returns
        -------
        repro.core.timearc_csr.TimeArcCSR
            The forward layout of the arcs flipped, with every label ``l``
            mapped to ``lifetime + 1 − l``: every reverse
            (latest-departure) sweep — departure matrices, single targets,
            blocked reverse tiles — runs the kernel over it or over a prefix
            of it.  The two directions are independent caches: a
            forward-only workload never pays for this sort.  With telemetry
            active each build records ``csr.builds.reverse``,
            ``csr.build_ms.reverse`` and ``csr.arcs.reverse``.
        """
        return self._layout(reverse=True)

    def _layout(self, reverse: bool, arcs: int | None = None):
        """The cached layout of one direction, holding at least ``arcs`` arcs.

        ``None`` asks for the whole layout.  When the cached layout is
        shorter, one is built through the least label bound whose layout
        holds ``arcs`` arcs (:meth:`_layout_bound`) and cached.  Storing
        never replaces a longer layout, so the cache holds the longest one
        built so far, whichever thread built it.
        """
        slot = "_reverse_timearc_csr" if reverse else "_timearc_csr"
        cached = getattr(self, slot)
        if cached is not None and (
            cached.through is None or (arcs is not None and cached.num_arcs >= arcs)
        ):
            return cached
        # Looked up on their modules per build, so a profiler that wraps a
        # builder sees every build.
        from . import reverse_timearc_csr, timearc_csr

        if reverse:
            build = reverse_timearc_csr.build_reverse_timearc_csr
        else:
            build = timearc_csr.build_timearc_csr
        through = None if arcs is None else self._layout_bound(reverse, arcs)
        direction = "reverse" if reverse else "forward"
        layout = timearc_csr.timed_build(direction, build, self, through)
        with _LAYOUT_LOCK:
            cached = getattr(self, slot)
            if cached is not None and cached.num_arcs >= layout.num_arcs:
                return cached
            setattr(self, slot, layout)
        return layout

    def _layout_bound(self, reverse: bool, arcs: int) -> int | None:
        """The least label bound whose layout in one direction holds ``arcs`` arcs.

        An order statistic of the labels: forward, the ``k``-th smallest
        label, where ``k`` labels give ``arcs`` time arcs; reverse, the
        mirror ``a + 1 − l`` of the ``k``-th largest.  ``None`` when only
        the whole layout holds that many.
        """
        labels = self._el_labels
        k = -(-arcs // (1 if self.directed else 2))
        if k >= labels.size:
            return None
        if reverse:
            kth = labels.size - k
            return self._lifetime + 1 - int(np.partition(labels, kth)[kth])
        return int(np.partition(labels, k - 1)[k - 1])

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
        return self._edge_label_tuples()[self._graph.edge_index(u, v)]

    def label_count_per_edge(self) -> np.ndarray:
        """Number of labels on each canonical edge, as an ``int64`` array."""
        return np.bincount(self._el_edge_index, minlength=self.m).astype(np.int64)

    def edge_label_items(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Iterate over ``((u, v), labels)`` pairs for every canonical edge."""
        pairs = self._graph.edge_pairs
        for index, labels in enumerate(self._edge_label_tuples()):
            yield (int(pairs[index, 0]), int(pairs[index, 1])), labels

    def time_edges(self) -> Iterator[TimeEdge]:
        """Iterate over all directed time arcs as :class:`TimeEdge` objects."""
        tails, heads, labels, _ = self._arcs()
        for u, v, label in zip(tails.tolist(), heads.tolist(), labels.tolist()):
            yield TimeEdge(u, v, label)

    def has_time_edge(self, u: int, v: int, label: int) -> bool:
        """Whether the arc ``(u, v)`` is available exactly at ``label``."""
        tails, heads, labels, _ = self._arcs()
        mask = (tails == u) & (heads == v) & (labels == label)
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
        keep = self._el_labels <= max_label
        edges, labels = self._el_edge_index[keep], self._el_labels[keep]
        return self._from_arrays(self._graph, edges, labels, self._lifetime)

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
        # Read backwards, every edge's mirrored labels ascend; a stable sort
        # by edge then restores the edge-major order.
        edges = self._el_edge_index[::-1]
        labels = a - self._el_labels[::-1]
        labels += 1
        graph = self._graph
        if self.directed:
            graph = graph.reverse()
            # The canonical index each arc (u, v)'s flipped twin (v, u) has
            # in the reversed graph, whose edge list is sorted by (tail, head).
            keys = graph.pair_tails * np.int64(self.n) + graph.pair_heads
            flipped = self._graph.pair_heads * np.int64(self.n) + self._graph.pair_tails
            edges = np.searchsorted(keys, flipped).take(edges)
        order = np.argsort(edges, kind="stable")
        return self._from_arrays(graph, edges.take(order), labels.take(order), a)

    def with_lifetime(self, lifetime: int) -> "TemporalGraph":
        """Return a copy with a different declared lifetime (labels unchanged)."""
        edges, labels = self._el_edge_index, self._el_labels
        return self._from_arrays(self._graph, edges, labels, lifetime)

    def underlying_edges_with_labels(self) -> StaticGraph:
        """Static graph keeping only the edges that received at least one label."""
        labelled = np.unique(self._el_edge_index)
        return StaticGraph(
            self.n,
            self._graph.edge_pairs[labelled],
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
            and np.array_equal(self._el_edge_index, other._el_edge_index)
            and np.array_equal(self._el_labels, other._el_labels)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._graph,
                self._lifetime,
                self._el_edge_index.tobytes(),
                self._el_labels.tobytes(),
            )
        )

    def __getstate__(self) -> tuple[StaticGraph, int, np.ndarray | None, np.ndarray]:
        # Only what defines the network: a one-label network's edge column is
        # its graph's, and the arcs and layouts are rebuilt on first use.
        edges = None if self._shared_arcs is not None else self._el_edge_index
        return (self._graph, self._lifetime, edges, self._el_labels)

    def __setstate__(
        self, state: tuple[StaticGraph, int, np.ndarray | None, np.ndarray]
    ) -> None:
        graph, lifetime, edges, labels = state
        if edges is None:
            edges = graph.edge_arcs.edge_index
        self._init(graph, edges, labels, lifetime)
