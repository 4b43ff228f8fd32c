"""The vectorised NumPy sweep kernel.

The sweep advances a packed ``reached`` bitset: one zero-padded row of
``uint64`` words per vertex, one bit per column, set when the column has
reached the vertex.  The caller sets each column's start bit.  By the
sweep's precondition every start lies below the first scanned label, and
an entry the sweep settles takes the current label, which every later group
exceeds.  So at group ``g`` a set bit means "arrived before ``labels[g]``",
and the two per-group tests (a tail forwards where it has arrived, a head
improves where it has not) are reads of that one bit.  Per group the kernel
gathers the tail words, ORs each head's run of arcs with
``np.bitwise_or.reduceat``, and sets the bits the heads lack (``new``): the
entries this group settles.

``new`` then feeds only the outputs the caller asked for:

* ``arrivals`` — the ``int64`` write-back: unpack ``new``, ``putmask`` the
  label into the gathered head rows and scatter them back.  A group with
  more than ``_ROW_SUBSET_ENTRIES`` head entries first drops the heads that
  gained no bit, so the write-back touches only the rows that settle;
* ``settled`` — the group's popcount;
* ``last`` — the group's label, for every column with a bit in ``new``.

Saturation is detected by counting, not by rescanning: the sweep starts
from the number of clear bits in the columns' words and subtracts each
group's popcount; it is saturated when the count reaches zero, which is the
group at which ``arrivals.max() <= label`` would first hold.
``tests/test_sweep_kernel.py`` pins these exit points against the ones the
scalar references' arrivals imply.

A dedicated path keeps width-1 arrivals (single-source / single-target
calls) on the cheaper 1-D ``np.minimum.at`` code.  Reverse sweeps run the
same code over the time-reversed layout.
"""

from __future__ import annotations

import numpy as np

from ...types import UNREACHABLE

__all__ = ["NumpyBackend"]

#: Head entries (heads × width) above which a group writes arrivals back
#: only for the heads that gained a bit.  Finding them costs three more numpy
#: calls: on wide tiles, where few heads settle anything, that saves most of
#: the unpack, gather and scatter; on the few-arc groups of small instances
#: the calls cost more than they save.
_ROW_SUBSET_ENTRIES = 8192


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
    ) -> tuple[int, bool]:
        """Advance ``reached`` over the label groups ``first_group ...``.

        The sweep runs over the groups of a
        :class:`~repro.core.timearc_csr.TimeArcCSR` in ascending label order
        and returns ``(groups_scanned, saturated)`` for the telemetry record.
        ``reached`` is an ``(n, ⌈width/64⌉)`` ``uint64`` array, one row per
        vertex and one bit per column (the sources in flight; ``width == 1``
        is the single-source case).  Column ``s`` is bit ``7 − s % 8`` of
        byte ``s // 8`` of the row's ``uint8`` view, the ``np.packbits``
        order.  The caller sets each column's start bit and leaves the
        padding bits clear, so the columns are the bits set at the start.
        An entry *settles* at the label group where the sweep first reaches
        it.  The optional outputs are computed only when passed:

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

        Precondition: every column starts below the first scanned label —
        its start value (``start_time`` forward, the mirrored deadline
        ``a − deadline`` reverse, which is negative for a deadline beyond
        the lifetime) — and every other entry starts unreached
        (:data:`~repro.types.UNREACHABLE` in ``arrivals``).
        :func:`repro.core.journeys._sweep`, behind every sweep entry point,
        guarantees it; saturation detection by counting relies on it.
        """
        if (
            arrivals is not None
            and arrivals.shape[1] == 1
            and settled is None
            and last is None
        ):
            return self._forward_single(csr, reached, arrivals[:, 0], first_group)
        labels = csr.labels.tolist()
        offsets = csr.arc_offsets.tolist()
        head_offsets = csr.head_offsets.tolist()
        tails = csr.tails
        head_values = csr.head_values
        head_starts = csr.head_starts
        n = reached.shape[0]
        groups_scanned = 0
        saturated = False
        if first_group >= len(labels):
            return groups_scanned, saturated
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
            reachable = reached[tails[lo:hi]]
            if not reachable.any():
                continue
            hlo, hhi = head_offsets[group], head_offsets[group + 1]
            if hhi - hlo != hi - lo:
                # Some heads have several arcs: OR each head's run of words.
                reachable = np.bitwise_or.reduceat(
                    reachable, head_starts[hlo:hhi], axis=0
                )
            heads = head_values[hlo:hhi]
            current = reached[heads]
            new = reachable & ~current
            if not new.any():
                continue
            current |= reachable
            reached[heads] = current
            gained = int(np.bitwise_count(new).sum())
            if settled is not None:
                settled[group] += gained
            if last is not None:
                touched = np.bitwise_or.reduce(new, axis=0).view(np.uint8)
                touched = np.unpackbits(touched, count=last.size).view(np.bool_)
                last[touched] = labels[group]
            if arrivals is not None:
                width = arrivals.shape[1]
                if (hhi - hlo) * width > _ROW_SUBSET_ENTRIES:
                    settling = np.flatnonzero(new.any(axis=1))
                    heads, new = heads[settling], new[settling]
                improved = np.unpackbits(
                    new.view(np.uint8), axis=1, count=width
                ).view(np.bool_)
                rows = arrivals[heads]
                np.putmask(rows, improved, labels[group])
                arrivals[heads] = rows
            # Saturation early-exit: once every entry is settled, no later
            # (larger) label can improve anything.
            unsettled -= gained
            if unsettled == 0:
                saturated = True
                break
        return groups_scanned, saturated

    def _forward_single(
        self, csr, reached: np.ndarray, state: np.ndarray, first_group: int
    ) -> tuple[int, bool]:
        labels = csr.labels
        offsets = csr.arc_offsets
        tails = csr.tails
        heads = csr.heads
        groups_scanned = 0
        saturated = False
        for group in range(first_group, labels.size):
            groups_scanned += 1
            label = int(labels[group])
            lo, hi = int(offsets[group]), int(offsets[group + 1])
            usable = state[tails[lo:hi]] < label
            if not usable.any():
                continue
            np.minimum.at(state, heads[lo:hi][usable], label)
            if int(state.max()) <= label:
                saturated = True
                break
        reached.view(np.uint8)[:, :1] |= np.packbits(
            state[:, None] < UNREACHABLE, axis=1
        )
        return groups_scanned, saturated

    # A reverse sweep is this advance over the time-reversed layout.  The
    # alias keeps one function under both names, so a profiler that wraps
    # ``reverse_sweep`` still sees reverse sweeps apart from forward ones.
    reverse_sweep = forward_sweep

    def __repr__(self) -> str:
        return "NumpyBackend()"
