"""The vectorised NumPy sweep kernel.

The sweep advances a packed ``reached`` bitset: one zero-padded row of
``uint64`` words per vertex, one bit per column, set when the column has
reached the vertex.  The caller sets each column's start bit.  By the
sweep's precondition every start lies below the first scanned label, and
an entry the sweep settles takes the current label, which every later group
exceeds.  So at group ``g`` a set bit means "arrived before ``labels[g]``",
and the two per-group tests (a tail forwards where it has arrived, a head
improves where it has not) are reads of that one bit.  Per group the kernel
gathers the tail words (``take``), ORs each head's run of arcs with
``np.bitwise_or.reduceat``, and sets the bits the heads lack (``new``): the
entries this group settles.  One popcount of ``new`` skips a group that
settles nothing.  The changed head rows go back with one ``put`` on a view
of ``reached`` that has one ``void`` element per row, a whole-row copy
instead of a fancy-index scatter of words.  The loop calls ufuncs,
``take``, ``put`` and ``count_nonzero`` only, no ``.any()`` / ``.sum()`` /
``.max()`` methods: on the few-arc groups of small instances the per-call
overhead, not the data, is the cost.

``new`` then feeds only the outputs the caller asked for:

* ``arrivals`` — a narrow *stage*, one entry per ``arrivals`` entry in the
  narrowest unsigned type that holds the number of groups (``uint8`` up to
  255 groups, ``uint16`` up to 65 535), holds ``g + 1`` where group ``g``
  settled the entry and 0 elsewhere.  Per group the kernel unpacks ``new``,
  scales the bits by ``g + 1`` and ORs them into the head rows of the stage
  (gathered and put back as whole rows).  When the sweep ends, by any exit,
  it writes ``labels[stage − 1]`` into ``arrivals`` in one pass;
* ``settled`` — that popcount;
* ``last`` — the group's label, for every column with a bit in ``new``
  (OR-reduced over a contiguous transpose of ``new``).

Saturation is detected by counting, not by rescanning: the sweep starts
from the number of clear bits in the columns' words and subtracts each
group's popcount; it is saturated when the count reaches zero, which is the
group at which ``arrivals.max() <= label`` would first hold.
``tests/test_sweep_kernel.py`` pins these exit points against the ones the
scalar references' arrivals imply.

A yes/no test passes ``required``, the rows a complete answer must reach,
and the sweep stops at the first row that provably falls short.  A
vertex's row can change only at a group with an arc into it, so after its
last in-arc group the row is final; a final row that lacks a required bit
decides the test, whatever the later groups do.  The rows are checked only
at the groups where some vertex takes its last in-arc, from the head rows
the group gathered anyway.  ``tests/test_oracle_crosscheck.py`` pins that
exit point against the brute-force rows.

A sweep of one column that asks for arrivals alone (single-source and
single-target calls) runs a 1-D loop on ``np.minimum.at`` instead, in both
directions over the network's *forward* layout: a reverse one walks the
groups from the last one down, mirrors each label to ``a + 1 − l`` and
reads every arc head → tail, so it visits the groups of the time-reversed
layout in that layout's order without building it.  Every other reverse
sweep runs the packed loop over the time-reversed layout.
"""

from __future__ import annotations

import numpy as np

from ...types import UNREACHABLE

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """The vectorised label-group sweep, in both directions."""

    def forward_sweep(
        self,
        csr,
        reached: np.ndarray,
        first_group: int,
        *,
        arrivals: np.ndarray | None = None,
        settled: np.ndarray | None = None,
        last: np.ndarray | None = None,
        required: np.ndarray | None = None,
    ) -> tuple[int, str | None]:
        """Advance ``reached`` over the label groups ``first_group ...``.

        The sweep runs over the groups of a
        :class:`~repro.core.timearc_csr.TimeArcCSR` in ascending label order
        and returns ``(groups_scanned, stop)`` for the telemetry record:
        ``stop`` is ``"saturation"`` or ``"deficient"`` when the sweep exited
        early for that reason, else ``None``.
        ``reached`` is a C-contiguous ``(n, ⌈width/64⌉)`` ``uint64`` array,
        one row per vertex and one bit per column (the sources in flight;
        ``width == 1`` is the single-source case).  Column ``s`` is bit
        ``7 − s % 8`` of byte ``s // 8`` of the row's ``uint8`` view, the
        ``np.packbits`` order.  The caller sets each column's start bit and
        leaves the padding bits clear, so the columns are the bits set at
        the start.  An entry *settles* at the label group where the sweep
        first reaches it.  The optional outputs are computed only when
        passed:

        ``arrivals``
            ``(n, width)`` ``int64`` earliest arrivals, set to each settling
            group's label (dense matrices, journeys, service queries,
            spills);
        ``settled``
            ``(G,)`` ``int64`` zeros; ``settled[g]`` counts the entries
            group ``g`` settles (blocked summaries);
        ``last``
            ``(width,)`` ``int64``; ``last[s]`` becomes the label of the
            last group that settled anything in column ``s`` (blocked
            summaries).

        With none of them the final bitset is the answer (reachability).

        ``required``
            ``reached``-shaped rows a complete answer must reach (a static
            closure, or every column).  The sweep stops, with ``stop ==
            "deficient"``, at the first group after which some vertex's row
            can no longer change and still lacks a required bit: its last
            in-arc group, or before the first group when no scanned group
            has an arc into it.  ``reached`` is then partial, and differs
            from ``required`` in that row.

        Precondition: every column starts below the first scanned label —
        its start value (``start_time`` forward, the mirrored deadline
        ``a − deadline`` reverse, which is negative for a deadline beyond
        the lifetime) — and every other entry starts unreached
        (:data:`~repro.types.UNREACHABLE` in ``arrivals``).
        :func:`repro.core.journeys._sweep`, behind every sweep entry point,
        guarantees it; saturation detection by counting relies on it.
        """
        if _single_column(arrivals, settled, last, required):
            return _single(csr, reached, arrivals[:, 0], first_group, mirrored=False)
        return _packed(csr, reached, first_group, arrivals, settled, last, required)

    def reverse_sweep(
        self,
        csr,
        reached: np.ndarray,
        first_group: int,
        *,
        arrivals: np.ndarray | None = None,
        settled: np.ndarray | None = None,
        last: np.ndarray | None = None,
        required: np.ndarray | None = None,
    ) -> tuple[int, str | None]:
        """:meth:`forward_sweep` over the time-reversed network.

        ``csr`` is the time-reversed layout, which this sweep advances over
        exactly as :meth:`forward_sweep` does, except for a single-column
        sweep asking for ``arrivals`` alone: that one takes the network's
        forward layout and walks it from group ``G − 1 − first_group`` down,
        with labels mirrored to ``a + 1 − l`` and every arc read head →
        tail.  Either way ``first_group`` counts the time-reversed groups
        the sweep skips, so both layouts visit the same groups in the same
        order.  Kept apart from :meth:`forward_sweep` so that a profiler
        that wraps it sees reverse sweeps on their own.
        """
        if _single_column(arrivals, settled, last, required):
            return _single(csr, reached, arrivals[:, 0], first_group, mirrored=True)
        return _packed(csr, reached, first_group, arrivals, settled, last, required)

    def __repr__(self) -> str:
        return "NumpyBackend()"


def _single_column(arrivals, settled, last, required) -> bool:
    """Whether a sweep runs the 1-D loop: one column, arrivals, nothing else."""
    return (
        arrivals is not None
        and arrivals.shape[1] == 1
        and settled is None
        and last is None
        and required is None
    )


def _single(
    csr, reached: np.ndarray, state: np.ndarray, first_group: int, *, mirrored: bool
) -> tuple[int, str | None]:
    """The one-column sweep on the 1-D arrival ``state``, over a forward layout.

    ``mirrored`` sweeps the time-reversed network: groups from the last one
    down, labels ``a + 1 − l``, arcs head → tail.
    """
    labels = csr.labels
    offsets = csr.arc_offsets
    if mirrored:
        groups = range(labels.size - 1 - first_group, -1, -1)
        labels = csr.lifetime + 1 - labels
        tails, heads = csr.narrow_heads, csr.tails
    else:
        groups = range(first_group, labels.size)
        tails, heads = csr.tails, csr.narrow_heads
    groups_scanned = 0
    saturated = False
    for group in groups:
        groups_scanned += 1
        label = int(labels[group])
        lo, hi = int(offsets[group]), int(offsets[group + 1])
        usable = state.take(tails[lo:hi]) < label
        if not np.count_nonzero(usable):
            continue
        np.minimum.at(state, heads[lo:hi][usable], label)
        if int(np.maximum.reduce(state)) <= label:
            saturated = True
            break
    reached.view(np.uint8)[:, :1] |= np.packbits(
        state[:, None] < UNREACHABLE, axis=1
    )
    return groups_scanned, "saturation" if saturated else None


def _rows(array: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D ``array`` viewed as one ``void`` element per row.

    ``put`` on the view stores whole rows; a block of rows joins it through
    ``block.view(rows.dtype)``.
    """
    return array.view(np.dtype((np.void, array.shape[1] * array.itemsize)))


def _packed(
    csr,
    reached: np.ndarray,
    first_group: int,
    arrivals: np.ndarray | None,
    settled: np.ndarray | None,
    last: np.ndarray | None,
    required: np.ndarray | None,
) -> tuple[int, str | None]:
    """The packed sweep; stages ``arrivals`` and writes them once at the end."""
    stage = None
    if arrivals is not None:
        stage = np.zeros(arrivals.shape, dtype=np.min_scalar_type(csr.labels.size))
    groups_scanned, stop = _advance(
        csr, reached, first_group, stage, settled, last, required
    )
    if stage is not None and groups_scanned:
        # Stage 0 reads UNREACHABLE, which leaves the start entries alone.
        table = np.concatenate(([UNREACHABLE], csr.labels))
        np.minimum(arrivals, table.take(stage), out=arrivals)
    return groups_scanned, stop


def _advance(
    csr,
    reached: np.ndarray,
    first_group: int,
    stage: np.ndarray | None,
    settled: np.ndarray | None,
    last: np.ndarray | None,
    required: np.ndarray | None,
) -> tuple[int, str | None]:
    """The packed group loop of :meth:`NumpyBackend.forward_sweep`.

    ``stage``, when given, is an ``(n, width)`` array of zeros in the
    narrowest unsigned type holding ``G``; an entry group ``g`` settles
    becomes ``g + 1``.
    """
    labels = csr.labels.tolist()
    offsets = csr.arc_offsets.tolist()
    head_offsets = csr.head_offsets.tolist()
    tails = csr.tails
    head_values = csr.head_values
    head_starts = csr.head_starts
    n = reached.shape[0]
    reached_rows = _rows(reached)
    if stage is not None:
        width = stage.shape[1]
        stage_rows = _rows(stage)
        code = stage.dtype.type
    groups_scanned = 0
    if required is not None:
        owed, checks, stale = _final_rows(csr, required, first_group)
        # Rows no scanned group can change are final before the sweep.
        if np.count_nonzero(required[stale] & ~reached[stale]):
            return groups_scanned, "deficient"
    if first_group >= len(labels):
        return groups_scanned, None
    # The columns are the bits set anywhere at the start (their start
    # bits); every clear bit among them is an unsettled entry.
    columns = np.bitwise_or.reduce(reached, axis=0)
    unsettled = n * int(np.bitwise_count(columns).sum()) - int(
        np.bitwise_count(reached).sum()
    )
    for group in range(first_group, len(labels)):
        groups_scanned += 1
        lo, hi = offsets[group], offsets[group + 1]
        # Which columns can forward over each arc of this label group.
        reachable = reached.take(tails[lo:hi], axis=0)
        hlo, hhi = head_offsets[group], head_offsets[group + 1]
        if hhi - hlo != hi - lo:
            # Some heads have several arcs: OR each head's run of words.
            reachable = np.bitwise_or.reduceat(
                reachable, head_starts[hlo:hhi], axis=0
            )
        heads = head_values[hlo:hhi]
        current = reached.take(heads, axis=0)
        new = reachable & ~current
        # The one popcount: it skips a group that settles nothing and
        # feeds ``settled`` and the saturation count.
        gained = int(np.add.reduce(np.bitwise_count(new), axis=None))
        if gained:
            current |= reachable
            reached_rows.put(heads, current.view(reached_rows.dtype))
            if settled is not None:
                settled[group] += gained
            if last is not None:
                touched = np.bitwise_or.reduce(np.ascontiguousarray(new.T), axis=1)
                touched = np.unpackbits(touched.view(np.uint8), count=last.size)
                last[touched.view(np.bool_)] = labels[group]
            if stage is not None:
                bits = np.unpackbits(new.view(np.uint8), axis=1, count=width)
                staged = stage.take(heads, axis=0)
                staged |= bits * code(group + 1)
                stage_rows.put(heads, staged.view(stage_rows.dtype))
            # Saturation early-exit: once every entry is settled, no later
            # (larger) label can improve anything.
            unsettled -= gained
            if unsettled == 0:
                return groups_scanned, "saturation"
        # Deficient early-exit: a head that takes its last in-arc here
        # has its final row in ``current``; one that lacks a required
        # bit decides the test, whatever the later groups do.
        if required is not None and checks[group]:
            if np.count_nonzero(owed[hlo:hhi] & ~current):
                return groups_scanned, "deficient"
    return groups_scanned, None


def _final_rows(
    csr, required: np.ndarray, first_group: int
) -> tuple[np.ndarray, list[bool], np.ndarray]:
    """Where each vertex's row becomes final, for the ``required`` check.

    Returns ``(owed, checks, stale)``.  ``owed`` has one row per entry of
    ``csr.head_values``: a vertex's required row at the entry of its last
    in-arc group, zeros elsewhere, so ``owed[hlo:hhi] & ~current`` flags
    exactly the final rows of group ``g`` that lack a bit.  ``checks[g]``
    says whether some vertex takes its last in-arc at group ``g``.
    ``stale`` marks the vertices with no in-arc at or after ``first_group``,
    whose rows are final before the sweep.
    """
    head_values = csr.head_values
    last_entry = np.full(required.shape[0], -1, dtype=np.int64)
    np.maximum.at(last_entry, head_values, np.arange(head_values.size))
    # A vertex without an in-arc keeps entry -1, which lands before group 0.
    last_group = np.searchsorted(csr.head_offsets, last_entry, side="right") - 1
    has_arc = last_entry >= 0
    owed = np.zeros((head_values.size, required.shape[1]), dtype=np.uint64)
    owed[last_entry[has_arc]] = required[has_arc]
    checks = np.zeros(csr.labels.size, dtype=np.bool_)
    checks[last_group[has_arc]] = True
    return owed, checks.tolist(), last_group < first_group
