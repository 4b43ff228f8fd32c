"""Label-grouped CSR layout of a temporal network's time arcs.

The journey kernels all share one access pattern: visit the time arcs one
*label value* at a time, in ascending label order, and inside each label group
reduce the arcs that share a head vertex.  The :class:`TimeArcCSR` structure
precomputes exactly that view once per :class:`~repro.core.temporal_graph.TemporalGraph`:

* arcs are sorted by ``(label, head)`` and stored as a flat ``tails`` column
  array (the CSR "columns") beside a narrow per-arc head column;
* ``arc_offsets`` is the CSR row-offset array over *label groups*: the arcs
  carrying the ``g``-th smallest label occupy
  ``tails[arc_offsets[g]:arc_offsets[g + 1]]``;
* for every group the distinct head vertices and the start of each head's run
  (``head_values``/``head_starts``, indexed through ``head_offsets``) are
  precomputed, so a kernel can OR-reduce per-head reachability with a single
  ``np.bitwise_or.reduceat`` and no per-call ``np.unique``.

Because a journey's labels must strictly increase, a sweep that processes the
groups in order maintains the invariant "after group ``g``, every arrival time
``<= labels[g]`` is final" — see ``docs/performance.md`` for the full argument.
The structure is immutable (all arrays are read-only) and is built lazily and
cached by :attr:`TemporalGraph.timearc_csr`, so the sort is paid once per
network instead of once per kernel call.  The sort is two stable argsorts, the
head column first and then the label column, each cast to the narrowest
unsigned type that holds it (labels shifted by the smallest one): numpy
radix-sorts 8- and 16-bit keys in ``O(A)`` and uses an ``O(A log A)`` timsort
for wider ones.

The layout stores only what the sweeps read.  The ``int64`` per-arc heads and
the permutation back to the network's arc order (:attr:`TimeArcCSR.heads`,
:attr:`TimeArcCSR.arc_order`) are derived on first use: journey
reconstruction and the tests read them, no label-group sweep does.

:func:`build_stack_timearc_csr` lays out ``T`` trials' networks on ``T``
disjoint copies of their graph straight from their label draws, building no
network, union graph or time-arc array first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..exceptions import LabelingError
from ..telemetry import active as _telemetry_active

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..graphs.static_graph import StaticGraph
    from .temporal_graph import TemporalGraph

__all__ = [
    "TimeArcCSR",
    "build_timearc_csr",
    "build_timearc_csr_from_arrays",
    "build_stack_timearc_csr",
]


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TimeArcCSR:
    """Immutable label-grouped CSR view of a temporal network's time arcs.

    Layouts compare and hash by identity: their fields are arrays, and no
    caller compares two layouts (the tests compare their columns).

    Attributes
    ----------
    n:
        Number of vertices of the network the layout was built from.
    lifetime:
        The network's lifetime ``a``.
    labels:
        The distinct label values present, ascending — one CSR "row" (label
        group) per entry; shape ``(G,)``.
    arc_offsets:
        Row-offset array of shape ``(G + 1,)``; group ``g`` spans arc
        positions ``arc_offsets[g]`` to ``arc_offsets[g + 1]``.
    tails:
        Tail vertex of every arc, sorted by ``(label, head)``; shape ``(A,)``.
    narrow_heads:
        Head vertex of every arc in the same order, in the narrowest unsigned
        type that holds ``n − 1``; shape ``(A,)``.  The width-1 sweep and
        journey reconstruction index with it.
    head_values:
        Distinct head vertices of every group, concatenated; the heads of
        group ``g`` are ``head_values[head_offsets[g]:head_offsets[g + 1]]``.
    head_offsets:
        Offsets into ``head_values``/``head_starts`` per group; shape
        ``(G + 1,)``.
    head_starts:
        For each entry of ``head_values``, the start of that head's run of
        arcs *relative to its group's first arc* — the ``reduceat`` index
        array for the group, shape matching ``head_values``.

    Every column but ``narrow_heads`` is ``int64``.
    """

    n: int
    lifetime: int
    labels: np.ndarray
    arc_offsets: np.ndarray
    tails: np.ndarray
    narrow_heads: np.ndarray
    head_values: np.ndarray
    head_offsets: np.ndarray
    head_starts: np.ndarray
    #: Runs the build's sort again on the columns it came from; only
    #: :attr:`arc_order` calls it.
    _resort: Callable[[], tuple[np.ndarray, np.ndarray, int]] = field(
        repr=False, compare=False
    )

    @property
    def num_arcs(self) -> int:
        """Total number of time arcs stored."""
        return int(self.tails.size)

    @property
    def num_groups(self) -> int:
        """Number of label groups (distinct label values)."""
        return int(self.labels.size)

    @property
    def nbytes(self) -> int:
        """Total bytes of the stored column arrays (diagnostics / capacity planning).

        The derived :attr:`heads` and :attr:`arc_order` are not counted.
        """
        return int(
            sum(
                arr.nbytes
                for arr in (
                    self.labels,
                    self.arc_offsets,
                    self.tails,
                    self.narrow_heads,
                    self.head_values,
                    self.head_offsets,
                    self.head_starts,
                )
            )
        )

    @cached_property
    def heads(self) -> np.ndarray:
        """``int64`` head of every arc, in layout order; derived on first use."""
        return _readonly(self.narrow_heads.astype(np.int64))

    @cached_property
    def arc_order(self) -> np.ndarray:
        """Permutation from layout position to time-arc index; derived on first use.

        ``arc_order[i]`` is the index, in the arrays the layout was built
        from (the network's ``time_arc_tails`` etc.), of the arc at layout
        position ``i``: journey reconstruction reports arcs by it.  The
        canonical edge index of every arc in layout order is
        ``network.time_arc_edge_index[arc_order]``.  It repeats the build's
        sort, so the first read costs about as much as a build.
        """
        return _readonly(self._resort()[0])

    def group_slice(self, group: int) -> slice:
        """The ``slice`` into the arc arrays covered by label group ``group``."""
        return slice(int(self.arc_offsets[group]), int(self.arc_offsets[group + 1]))

    def iter_groups(self) -> Iterator[tuple[int, slice]]:
        """Iterate ``(label, arc_slice)`` pairs in ascending label order."""
        for group in range(self.num_groups):
            yield int(self.labels[group]), self.group_slice(group)

    def __repr__(self) -> str:
        return (
            f"TimeArcCSR(n={self.n}, arcs={self.num_arcs}, "
            f"groups={self.num_groups}, lifetime={self.lifetime})"
        )


def build_timearc_csr(network: "TemporalGraph") -> TimeArcCSR:
    """Build the label-grouped CSR layout for a temporal network.

    The arcs are sorted by ``(label, head)`` so that inside each label group
    arcs sharing a head are contiguous; the per-group distinct heads and their
    run starts are precomputed for the ``reduceat`` reduction used by the
    batched kernels.  Cost is ``O(A)`` time while vertex ids and the label
    span fit in 16 bits (``O(A log A)`` beyond) and ``O(A)`` memory for
    ``A = network.num_time_arcs``; call sites should go through the cached
    :attr:`TemporalGraph.timearc_csr` rather than rebuilding.

    Parameters
    ----------
    network:
        The temporal network whose time arcs to lay out.

    Returns
    -------
    TimeArcCSR
        The immutable CSR structure (all arrays read-only).
    """
    # A network with one label per edge has its graph's arcs, whose head
    # order the graph keeps for every such network.
    arcs = network._shared_arcs
    return _build_layout(
        network.n,
        network.lifetime,
        network.time_arc_tails,
        network.time_arc_heads,
        network.time_arc_labels,
        None if arcs is None else arcs.head_order,
    )


def build_timearc_csr_from_arrays(
    n: int,
    lifetime: int,
    raw_tails: np.ndarray,
    raw_heads: np.ndarray,
    raw_labels: np.ndarray,
) -> TimeArcCSR:
    """Build the label-grouped CSR layout from flat time-arc arrays.

    Array-level entry point shared by :func:`build_timearc_csr` and callers
    that already hold vectorised time-arc columns and do not need a full
    :class:`~repro.core.temporal_graph.TemporalGraph` first.  The three
    input columns must be parallel arrays of equal length: ``int64`` tails
    and heads, with heads in ``[0, n)``, and non-negative labels of any
    integer type.  The ``int64`` columns of the layout are the same whatever
    the label column's type.  The layout keeps references to ``raw_heads``
    and ``raw_labels`` to derive :attr:`TimeArcCSR.arc_order`.
    """
    return _build_layout(n, lifetime, raw_tails, raw_heads, raw_labels, None)


def build_stack_timearc_csr(
    graph: "StaticGraph", draws: Sequence[np.ndarray], lifetime: int
) -> TimeArcCSR:
    """The layout of ``T`` trials' networks on disjoint copies of ``graph``, from their draws.

    Trial ``t``'s network, ``from_label_matrix(graph, draws[t], lifetime=
    lifetime)``, lies on copy ``t`` (vertices ``t·n …``, edges ``t·m + e``),
    and the result equals :func:`build_timearc_csr` of the one network
    holding all ``T``, in every column and dtype.  Gathered onto the graph's
    arcs in head order, the draws sit in the union's head order, so one
    stable sort by label orders the layout; a label drawn twice on one edge
    of one trial then follows its first draw and is dropped.  A draw out of
    ``[1, lifetime]`` raises what ``from_label_matrix`` raises on the first
    trial holding one; :attr:`~TimeArcCSR.arc_order` raises ``ValueError``.
    """
    copies = len(draws)
    n = copies * graph.n
    narrow = np.min_scalar_type(max(n - 1, 0))
    matrix = np.stack(draws)
    if matrix.ndim != 3 or matrix.shape[1] != graph.m:
        raise LabelingError(f"expected (m, r) draws with m = {graph.m}, got {matrix.shape[1:]}")
    low, high = (int(matrix.min()), int(matrix.max())) if matrix.size else (1, 1)
    if low < 1 or high > lifetime:
        from .temporal_graph import TemporalGraph

        for trial_draws in draws:
            TemporalGraph.from_label_matrix(graph, trial_draws, lifetime=lifetime)
    r = matrix.shape[2]
    keys = np.empty(matrix.shape, dtype=np.min_scalar_type(high - low))
    np.subtract(matrix, low, out=keys, casting="unsafe")
    del matrix
    arcs = graph.edge_arcs
    order = arcs.head_order
    keys = keys.take(arcs.arc_edge_index.take(order), axis=1).ravel()
    points = np.argsort(keys, kind="stable")
    keys = keys.take(points)
    if r > 1:
        # Flat positions to (t, p) points.
        points //= r
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keep[1:] |= points[1:] != points[:-1]
        kept = np.flatnonzero(keep)
        keys, points = keys.take(kept), points.take(kept)
    offsets = np.arange(copies, dtype=np.int64)[:, np.newaxis] * graph.n
    tails = (arcs.tails.take(order) + offsets).ravel().take(points)
    heads = arcs.heads.take(order).astype(narrow) + offsets.astype(narrow)
    return _grouped_layout(
        n, lifetime, tails, heads.ravel().take(points), keys, low, _no_arc_order
    )


def _no_arc_order() -> tuple[np.ndarray, np.ndarray, int]:
    raise ValueError("a layout built from label draws has no arc order")


def timed_build(
    direction: str, build: Callable[..., TimeArcCSR], *args: object
) -> TimeArcCSR:
    """``build(*args)``, recording ``csr.builds.<direction>`` and its time on the active recorders."""
    recs = _telemetry_active()
    if not recs:
        return build(*args)
    start = time.perf_counter()
    csr = build(*args)
    duration_ms = (time.perf_counter() - start) * 1e3
    for rec in recs:
        rec.counter(f"csr.builds.{direction}")
        rec.observe_ms(f"csr.build_ms.{direction}", duration_ms)
    return csr


def _sorted_arcs(
    heads: np.ndarray,
    raw_labels: np.ndarray,
    head_order: np.ndarray | None,
    mirrored: bool,
    lifetime: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The layout's arc order, its label keys in that order, and the label of key 0.

    Two stable sorts, the minor key first: the permutation equals
    ``np.lexsort((heads, labels))`` at every key width, and with
    ``mirrored`` it sorts the labels ``a + 1 − l`` instead.  The label keys
    are the labels shifted to start at 0 (``l − min``, or ``max − l``
    mirrored), in the narrowest unsigned type that holds their span: one
    8-bit radix pass whenever the labels span at most 256 values.  A key
    ``k`` stands for the layout label ``first + k``.  ``head_order`` is
    ``np.argsort(heads, kind="stable")``, or ``None`` to sort the heads here.
    """
    if raw_labels.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    low, high = int(raw_labels.min()), int(raw_labels.max())
    keys = np.empty(raw_labels.size, dtype=np.min_scalar_type(high - low))
    if mirrored:
        np.subtract(high, raw_labels, out=keys, casting="unsafe")
    else:
        np.subtract(raw_labels, low, out=keys, casting="unsafe")
    order = head_order
    if order is None:
        order = np.argsort(heads, kind="stable")
    keys = keys.take(order)
    by_label = np.argsort(keys, kind="stable")
    first = lifetime + 1 - high if mirrored else low
    return order.take(by_label), keys.take(by_label), first


def _build_layout(
    n: int,
    lifetime: int,
    raw_tails: np.ndarray,
    raw_heads: np.ndarray,
    raw_labels: np.ndarray,
    head_order: np.ndarray | None,
    *,
    mirrored: bool = False,
) -> TimeArcCSR:
    """:func:`build_timearc_csr_from_arrays` from a known ``head_order``.

    ``head_order`` is ``np.argsort(raw_heads, kind="stable")``, or ``None``
    to sort the heads here.  With ``mirrored`` the layout's labels are
    ``lifetime + 1 − raw_labels`` (the time-reversed layout).
    """
    head_keys = raw_heads.astype(np.min_scalar_type(max(n - 1, 0)))
    # arc_order sorts again from the source columns, which the network keeps
    # anyway; a stable sort of the int64 heads gives the same order.
    resort = partial(_sorted_arcs, raw_heads, raw_labels, head_order, mirrored, lifetime)
    order, keys, first = _sorted_arcs(head_keys, raw_labels, head_order, mirrored, lifetime)
    tails, heads = raw_tails.take(order), head_keys.take(order)
    del order
    return _grouped_layout(n, lifetime, tails, heads, keys, first, resort)


def _grouped_layout(
    n: int,
    lifetime: int,
    tails: np.ndarray,
    heads: np.ndarray,
    keys: np.ndarray,
    first: int,
    resort: Callable[[], tuple[np.ndarray, np.ndarray, int]],
) -> TimeArcCSR:
    """The layout of arcs already in layout order.

    ``tails`` (``int64``), ``heads`` (narrow) and the label ``keys`` are
    sorted by ``(label, head)``; a key ``k`` stands for the label
    ``first + k``.  The label groups and each group's head runs are read
    off the runs of equal keys and heads.
    """
    num_arcs = int(keys.size)
    run_start = np.empty(num_arcs, dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    group_starts = np.flatnonzero(run_start)
    arc_offsets = np.append(group_starts, num_arcs)
    # Each group's label is the label of its first arc.
    labels = keys.take(group_starts).astype(np.int64)
    labels += first

    # A head run starts wherever the head changes or a new label group begins.
    run_start[1:] |= heads[1:] != heads[:-1]
    head_starts_abs = np.flatnonzero(run_start)
    # Every group start is itself a run start, so searchsorted lands exactly.
    head_offsets = np.searchsorted(head_starts_abs, arc_offsets)
    heads_per_group = np.diff(head_offsets)
    head_starts = head_starts_abs - np.repeat(group_starts, heads_per_group)

    return TimeArcCSR(
        n=n,
        lifetime=lifetime,
        labels=_readonly(labels),
        arc_offsets=_readonly(arc_offsets),
        tails=_readonly(tails),
        narrow_heads=_readonly(heads),
        head_values=_readonly(heads.take(head_starts_abs).astype(np.int64)),
        head_offsets=_readonly(head_offsets),
        head_starts=_readonly(head_starts),
        _resort=resort,
    )
