"""The vectorised NumPy sweep kernel.

The sweep advances a packed ``reached`` bitset: one zero-padded row of
``uint64`` words per vertex, one bit per column, set when the column has
reached the vertex.  The caller sets each column's start bit.  By the
sweep's precondition every start lies below the first scanned label, and
an entry the sweep settles takes the current label, which every later group
exceeds.  So at group ``g`` a set bit means "arrived before ``labels[g]``",
and the two per-group tests (a tail forwards where it has arrived, a head
improves where it has not) are reads of that one bit.  Per group the kernel
ORs, for each head, the words of the tails of its arcs, in one of two
forms.  Where the layout has a gather plan
(:attr:`~repro.core.timearc_csr.TimeArcCSR.gather_plan`: many heads per
group, almost all with one arc) it gathers one tail per head (``take``) and
ORs the few other arcs into their heads' rows with ``np.bitwise_or.at``;
otherwise it gathers every arc's tail and ORs each head's run of arcs with
``np.bitwise_or.reduceat``.  It then sets the bits the heads lack
(``new``): the entries this group settles.  One popcount of ``new`` skips a
group that settles nothing.  The changed head rows go back with one ``put``
on a view of ``reached`` that has one ``void`` element per row, a whole-row
copy instead of a fancy-index scatter of words.  The loop calls ufuncs and
their ``reduce`` / ``reduceat`` / ``at`` methods, ``take``, ``put`` and
``count_nonzero`` only, no ``.any()`` / ``.sum()`` / ``.max()`` methods: on
the few-arc groups of small instances the per-call overhead, not the data,
is the cost.

``new`` then feeds only the outputs the caller asked for:

* ``arrivals`` — a narrow *stage*, one entry per ``arrivals`` entry in the
  narrowest unsigned type that holds the number of groups (``uint8`` up to
  255 groups, ``uint16`` up to 65 535), holds ``g + 1`` where group ``g``
  settled the entry and 0 elsewhere.  Per group the kernel unpacks ``new``,
  scales the bits by ``g + 1`` and ORs them into the head rows of the stage
  (gathered and put back as whole rows).  When the sweep ends, by any exit,
  it writes ``labels[stage − 1]`` into ``arrivals`` in one pass;
* ``settled`` — that popcount;
* ``last`` — the OR of ``new`` over the group's heads (reduced over a
  contiguous transpose of ``new``) goes into row ``g`` of a ``(G, words)``
  array.  When the sweep ends, by any exit, each column with a bit in some
  row takes the label of the last such row, once: a reversed cumulative OR
  clears every bit a later row holds, and only the words left set are
  unpacked.

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
single-target calls) runs a 1-D loop on ``np.minimum.at`` instead.  Both
directions run forward over the layout they are given: a reverse sweep's is
the time-reversed layout.

A layout may be a prefix, built through a label bound
(:attr:`~repro.core.timearc_csr.TimeArcCSR.through`).  A sweep that runs out
of its groups unsettled returns with no stop, and the caller calls again
with the grown layout from the first group not scanned
(``repro.core.journeys._sweep``).  Everything a call carries into the next
lives in ``reached`` and the outputs: the stage and the ``last`` rows are
written out at the end of every call, and the saturation count is taken
afresh from ``reached`` at its start.
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
        (:data:`~repro.types.UNREACHABLE` in ``arrivals``), or, when a
        sweep goes on over a grown layout, reached below that label by the
        calls before.  :func:`repro.core.journeys._sweep`, behind every
        sweep entry point, guarantees it; saturation detection by counting
        relies on it.
        """
        return _run(csr, reached, first_group, arrivals, settled, last, required)

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

        ``csr`` is the time-reversed layout (or a prefix of it), which this
        sweep advances over exactly as :meth:`forward_sweep` does.  Kept
        apart from :meth:`forward_sweep` so that a profiler that wraps it
        sees reverse sweeps on their own.
        """
        return _run(csr, reached, first_group, arrivals, settled, last, required)

    def __repr__(self) -> str:
        return "NumpyBackend()"


def _run(
    csr,
    reached: np.ndarray,
    first_group: int,
    arrivals: np.ndarray | None,
    settled: np.ndarray | None,
    last: np.ndarray | None,
    required: np.ndarray | None,
) -> tuple[int, str | None]:
    """Either sweep: the 1-D loop for one column asking for arrivals alone, else the packed one."""
    if (
        arrivals is not None
        and arrivals.shape[1] == 1
        and settled is None
        and last is None
        and required is None
    ):
        return _single(csr, reached, arrivals[:, 0], first_group)
    return _packed(csr, reached, first_group, arrivals, settled, last, required)


def _single(
    csr, reached: np.ndarray, state: np.ndarray, first_group: int
) -> tuple[int, str | None]:
    """The one-column sweep on the 1-D arrival ``state``."""
    labels = csr.labels
    offsets = csr.arc_offsets
    tails, heads = csr.tails, csr.narrow_heads
    groups_scanned = 0
    saturated = False
    for group in range(first_group, labels.size):
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
    """The packed sweep; stages ``arrivals`` and ``last`` and writes them once at the end."""
    stage = last_rows = None
    if arrivals is not None:
        stage = np.zeros(arrivals.shape, dtype=np.min_scalar_type(csr.labels.size))
    if last is not None:
        last_rows = np.zeros((csr.labels.size, reached.shape[1]), dtype=np.uint64)
    groups_scanned, stop = _advance(
        csr, reached, first_group, stage, settled, last_rows, required
    )
    if stage is not None and groups_scanned:
        # Stage 0 reads UNREACHABLE, which leaves the start entries alone.
        table = np.concatenate(([UNREACHABLE], csr.labels))
        np.minimum(arrivals, table.take(stage), out=arrivals)
    if last_rows is not None and groups_scanned:
        _fold_last(last_rows, csr.labels, last)
    return groups_scanned, stop


def _fold_last(rows: np.ndarray, labels: np.ndarray, last: np.ndarray) -> None:
    """Set ``last[s]`` to ``labels[g]`` for the last row ``g`` of ``rows`` with bit ``s``.

    ``rows`` is the ``(G, words)`` array of each group's settled columns, and
    is overwritten.  Clearing from every row the bits a later row holds
    leaves each column's bit in its last row alone, so at most one word per
    column stays set, and only those words are unpacked.  Columns with no
    bit keep their value.
    """
    later = np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
    rows[:-1] &= ~later[1:]
    groups, words = np.nonzero(rows)
    bits = np.unpackbits(rows[groups, words].view(np.uint8).reshape(-1, 8), axis=1)
    bits = bits.view(np.bool_)
    columns = (words[:, np.newaxis] * 64 + np.arange(64))[bits]
    last[columns] = np.repeat(labels.take(groups), np.count_nonzero(bits, axis=1))


def _advance(
    csr,
    reached: np.ndarray,
    first_group: int,
    stage: np.ndarray | None,
    settled: np.ndarray | None,
    last_rows: np.ndarray | None,
    required: np.ndarray | None,
) -> tuple[int, str | None]:
    """The packed group loop of :meth:`NumpyBackend.forward_sweep`.

    ``stage``, when given, is an ``(n, width)`` array of zeros in the
    narrowest unsigned type holding ``G``; an entry group ``g`` settles
    becomes ``g + 1``.  ``last_rows``, when given, is a ``(G, words)``
    ``uint64`` array of zeros; row ``g`` becomes the columns group ``g``
    settles anything in, in the ``reached`` bit order.
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
    columns = np.bitwise_or.reduce(np.ascontiguousarray(reached.T), axis=1)
    unsettled = n * int(np.bitwise_count(columns).sum()) - int(
        np.bitwise_count(reached).sum()
    )
    plan = csr.gather_plan
    if plan is not None:
        run_tails, extra_tails, extra_heads, extra_offsets = plan
        extra_offsets = extra_offsets.tolist()
    for group in range(first_group, len(labels)):
        groups_scanned += 1
        hlo, hhi = head_offsets[group], head_offsets[group + 1]
        # Which columns can forward into each head of this label group.
        if plan is None:
            lo, hi = offsets[group], offsets[group + 1]
            reachable = reached.take(tails[lo:hi], axis=0)
            if hhi - hlo != hi - lo:
                # Some heads have several arcs: OR each head's run of words.
                reachable = np.bitwise_or.reduceat(
                    reachable, head_starts[hlo:hhi], axis=0
                )
        else:
            # One arc per head, then the few other arcs ORed into theirs.
            reachable = reached.take(run_tails[hlo:hhi], axis=0)
            elo, ehi = extra_offsets[group], extra_offsets[group + 1]
            if elo != ehi:
                np.bitwise_or.at(
                    reachable,
                    extra_heads[elo:ehi],
                    reached.take(extra_tails[elo:ehi], axis=0),
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
            if last_rows is not None:
                np.bitwise_or.reduce(
                    np.ascontiguousarray(new.T), axis=1, out=last_rows[group]
                )
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
