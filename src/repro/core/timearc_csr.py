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
cached on the :class:`~repro.core.temporal_graph.TemporalGraph`, so the sort is
paid once per network instead of once per kernel call.  The sort is two stable
argsorts, the head column first and then the label column, each cast to the
narrowest unsigned type that holds it (labels shifted by the smallest one):
numpy radix-sorts 8- and 16-bit keys in ``O(A)`` and uses an ``O(A log A)``
timsort for wider ones.

A layout can be built *through a label bound*: ``build_timearc_csr(network,
through=t)`` lays out only the arcs labelled at most ``t``.  One ``O(A)``
compare on the label keys picks them, and the two sorts then run on the kept
arcs alone.  The keys keep the whole network's span and type, so such a
*prefix* equals the first groups of the whole layout in every column and
dtype, and :attr:`TimeArcCSR.through` records the bound it covers.  A sweep
that saturates early reads only the first groups, so it starts from a prefix
and grows it on demand (``repro.core.journeys._sweep``).

The layout stores only what the sweeps read.  The ``int64`` per-arc heads and
the permutation back to the network's arc order (:attr:`TimeArcCSR.heads`,
:attr:`TimeArcCSR.arc_order`) are derived on first use: journey
reconstruction and the tests read them, no label-group sweep does.  So is
:attr:`TimeArcCSR.gather_plan`, which lets a packed sweep gather one arc per
head where almost every head of a group has one arc.

:func:`build_stack_timearc_csr` lays out ``T`` trials' networks on ``T``
disjoint copies of their graph straight from their label draws, building no
network, union graph or time-arc array first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

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


class GatherPlan(NamedTuple):
    """A layout's head runs as one gathered arc per head plus the other arcs.

    ``run_tails[i]`` is the tail of the first arc of the run of
    ``head_values[i]``.  The arcs after the first of each run are the
    *extra* arcs, in layout order: ``extra_tails`` holds their tails and
    ``extra_heads`` the index of their head among their group's heads.
    Group ``g``'s extra arcs are ``extra_offsets[g]`` to
    ``extra_offsets[g + 1]``.  Every column is ``int64`` and read-only.
    """

    run_tails: np.ndarray
    extra_tails: np.ndarray
    extra_heads: np.ndarray
    extra_offsets: np.ndarray


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
    through:
        The label bound the layout covers: it holds the arcs labelled at
        most ``through``, which are the first groups of the whole layout.
        ``None`` when it holds every arc.

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
    _resort: Callable[[], tuple[np.ndarray, np.ndarray, int, int | None]] = field(
        repr=False, compare=False
    )
    through: int | None = None

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

        The derived :attr:`heads`, :attr:`arc_order` and :attr:`gather_plan`
        are not counted.
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
        sort, so the first read costs about as much as a build.  A layout
        built through a bound lists only the arcs it holds.
        """
        return _readonly(self._resort()[0])

    @cached_property
    def gather_plan(self) -> GatherPlan | None:
        """The head runs as one gathered arc per head; derived on first use.

        A packed sweep with the plan gathers ``run_tails`` for a group's
        heads and ORs in its few extra arcs, instead of gathering every arc
        and OR-reducing each head's run.  That pays only where a group has
        many heads and almost all of them one arc, so the plan exists only
        when the layout has at least 64 heads per group and at most one
        extra arc per 8 heads; it is ``None`` otherwise.  With a telemetry
        recorder active a derivation records ``csr.plans`` and its
        ``csr.plan_ms`` timing.
        """
        heads = self.head_values.size
        if heads < 64 * self.num_groups or 8 * (self.num_arcs - heads) > heads:
            return None
        return _timed("csr.plans", "csr.plan_ms", _gather_plan, self)

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


def build_timearc_csr(
    network: "TemporalGraph", through: int | None = None
) -> TimeArcCSR:
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
    through:
        Lay out only the arcs labelled at most ``through``: the first groups
        of the whole layout, equal to the layout of
        ``network.restricted_to_max_label(through)``.  ``None`` (the
        default) lays out every arc.

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
        through=through,
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


def _no_arc_order() -> tuple[np.ndarray, np.ndarray, int, int | None]:
    raise ValueError("a layout built from label draws has no arc order")


def timed_build(
    direction: str, build: Callable[..., TimeArcCSR], *args: object
) -> TimeArcCSR:
    """``build(*args)``, recording ``csr.builds.<direction>``, its time and the arcs laid out.

    The arcs go to the ``csr.arcs.<direction>`` counter of the active
    recorders, so a build through a label bound shows what it left out.
    """
    built = _timed(f"csr.builds.{direction}", f"csr.build_ms.{direction}", build, *args)
    for rec in _telemetry_active():
        rec.counter(f"csr.arcs.{direction}", built.num_arcs)
    return built


def _timed(count: str, timing: str, build: Callable, *args: object):
    """``build(*args)``, recording the counter ``count`` and the ``timing`` on the active recorders."""
    recs = _telemetry_active()
    if not recs:
        return build(*args)
    start = time.perf_counter()
    built = build(*args)
    duration_ms = (time.perf_counter() - start) * 1e3
    for rec in recs:
        rec.counter(count)
        rec.observe_ms(timing, duration_ms)
    return built


def _gather_plan(csr: TimeArcCSR) -> GatherPlan:
    """The :class:`GatherPlan` of ``csr``'s head runs."""
    run_starts = csr.head_starts + np.repeat(
        csr.arc_offsets[:-1], np.diff(csr.head_offsets)
    )
    first = np.zeros(csr.num_arcs, dtype=bool)
    first[run_starts] = True
    extra = np.flatnonzero(~first)
    extra_offsets = np.searchsorted(extra, csr.arc_offsets)
    # An arc's head entry counts the run starts up to it; an extra arc's
    # index among its group's heads is that entry less the group's first.
    entries = np.cumsum(first).take(extra) - 1
    entries -= np.repeat(csr.head_offsets[:-1], np.diff(extra_offsets))
    return GatherPlan(
        run_tails=_readonly(csr.tails.take(run_starts)),
        extra_tails=_readonly(csr.tails.take(extra)),
        extra_heads=_readonly(entries),
        extra_offsets=_readonly(extra_offsets),
    )


def _sorted_arcs(
    raw_heads: np.ndarray,
    raw_labels: np.ndarray,
    head_order: np.ndarray | None,
    mirrored: bool,
    lifetime: int,
    through: int | None,
    n: int,
) -> tuple[np.ndarray, np.ndarray, int, int | None]:
    """The layout's arc order, its label keys in that order, the label of key 0 and its bound.

    Two stable sorts, the minor key first: the permutation equals
    ``np.lexsort((heads, labels))`` at every key width, and with
    ``mirrored`` it sorts the labels ``a + 1 − l`` instead.  The label keys
    are the labels shifted to start at 0 (``l − min``, or ``max − l``
    mirrored), in the narrowest unsigned type that holds their span: one
    8-bit radix pass whenever the labels span at most 256 values.  A key
    ``k`` stands for the layout label ``first + k``.  ``head_order`` is
    ``np.argsort(raw_heads, kind="stable")``, or ``None`` to sort the heads
    here, cast to the narrowest unsigned type that holds ``n − 1``.

    With ``through``, only the arcs whose layout label is at most
    ``through`` are kept: one compare on the keys picks them, in head order
    when ``head_order`` is given and before the head sort otherwise, and the
    sorts then run on them alone.  The returned bound is ``through``, or
    ``None`` when every arc is kept.
    """
    if raw_labels.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0, None
    low, high = int(raw_labels.min()), int(raw_labels.max())
    keys = np.empty(raw_labels.size, dtype=np.min_scalar_type(high - low))
    if mirrored:
        np.subtract(high, raw_labels, out=keys, casting="unsafe")
    else:
        np.subtract(raw_labels, low, out=keys, casting="unsafe")
    first = lifetime + 1 - high if mirrored else low
    if through is not None and through - first >= high - low:
        through = None
    narrow = np.min_scalar_type(max(n - 1, 0))
    if through is None:
        order = head_order
        if order is None:
            order = np.argsort(raw_heads.astype(narrow), kind="stable")
        keys = keys.take(order)
    elif head_order is None:
        # A stable sort of the kept heads is the head order restricted to them.
        kept = np.flatnonzero(keys <= through - first)
        order = kept.take(np.argsort(raw_heads.take(kept).astype(narrow), kind="stable"))
        keys = keys.take(order)
    else:
        keys = keys.take(head_order)
        kept = np.flatnonzero(keys <= through - first)
        order, keys = head_order.take(kept), keys.take(kept)
    by_label = np.argsort(keys, kind="stable")
    return order.take(by_label), keys.take(by_label), first, through


def _build_layout(
    n: int,
    lifetime: int,
    raw_tails: np.ndarray,
    raw_heads: np.ndarray,
    raw_labels: np.ndarray,
    head_order: np.ndarray | None,
    *,
    mirrored: bool = False,
    through: int | None = None,
) -> TimeArcCSR:
    """:func:`build_timearc_csr_from_arrays` from a known ``head_order``.

    ``head_order`` is ``np.argsort(raw_heads, kind="stable")``, or ``None``
    to sort the heads here.  With ``mirrored`` the layout's labels are
    ``lifetime + 1 − raw_labels`` (the time-reversed layout).  With
    ``through`` it holds only the arcs whose layout label is at most
    ``through``.
    """
    # arc_order sorts again from the source columns, which the network keeps
    # anyway.
    resort = partial(
        _sorted_arcs, raw_heads, raw_labels, head_order, mirrored, lifetime, through, n
    )
    order, keys, first, through = resort()
    tails = raw_tails.take(order)
    heads = raw_heads.take(order).astype(np.min_scalar_type(max(n - 1, 0)))
    del order
    return _grouped_layout(n, lifetime, tails, heads, keys, first, resort, through)


def _grouped_layout(
    n: int,
    lifetime: int,
    tails: np.ndarray,
    heads: np.ndarray,
    keys: np.ndarray,
    first: int,
    resort: Callable[[], tuple[np.ndarray, np.ndarray, int, int | None]],
    through: int | None = None,
) -> TimeArcCSR:
    """The layout of arcs already in layout order, covering the bound ``through``.

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
        through=through,
    )
