"""The vectorised NumPy sweep backend — the always-available reference.

This is the batched engine PR 1/PR 6 built, moved behind the
:class:`~repro.core.kernels.SweepKernelBackend` protocol unchanged: per label
group, the per-column "can forward" masks are OR-reduced over the arcs
sharing a head (forward) or tail (reverse) on **packed bits**
(``np.packbits`` + ``np.bitwise_or.reduceat``), improvements are written
into the gathered rows with ``np.putmask`` and scattered back, and the
sweep exits early once the state saturates.  A dedicated ``width == 1``
path keeps the single-source / single-target calls on the cheaper 1-D
``np.minimum.at`` / ``np.maximum.at`` code the free functions always used.

Saturation is detected by counting, not by rescanning the state.  By the
protocol's precondition every entry starts either below the first scanned
label (a source's ``start_time``, a target's ``deadline + 1`` in reverse)
or beyond every label (unreached), so one ``count_nonzero`` before the
first group counts the unreached entries.  An improvement always moves an
unreached entry to the current label, and that entry can never improve
again: later groups carry larger (forward) or smaller (reverse) labels.  A
group's heads (tails in reverse) are distinct rows, so each ``True`` in its
``improved`` mask settles exactly one entry.  The sweep is saturated when
the count of unreached entries reaches zero, which is the group at which
``state.max() <= label`` (``state.min() >= label`` in reverse) would first
hold; ``tests/test_kernel_backends.py`` pins these exit points against the
scalar loops' own scan.

Every other backend is pinned bit-identical to this one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Vectorised reference implementation of both sweeps."""

    name = "numpy"
    priority = 10

    def availability(self) -> str | None:
        return None

    def warm_up(self) -> None:
        return None

    # ------------------------------------------------------------------ #
    # forward (ascending labels, earliest arrivals)
    # ------------------------------------------------------------------ #
    def forward_sweep(self, csr, state: np.ndarray, first_group: int) -> tuple[int, bool]:
        if state.shape[1] == 1:
            return self._forward_single(csr, state[:, 0], first_group)
        labels = csr.labels
        offsets = csr.arc_offsets
        tails = csr.tails
        head_values = csr.head_values
        head_offsets = csr.head_offsets
        head_starts = csr.head_starts
        width = state.shape[1]
        groups_scanned = 0
        saturated = False
        if first_group >= labels.size:
            return groups_scanned, saturated
        # The unreached entries: everything above the first scanned label.
        unsettled = int(np.count_nonzero(state > labels[first_group]))
        for group in range(first_group, labels.size):
            groups_scanned += 1
            label = int(labels[group])
            lo, hi = int(offsets[group]), int(offsets[group + 1])
            # Which columns can forward over each arc of this label group.
            reachable = state[tails[lo:hi]] < label
            if not reachable.any():
                continue
            hlo, hhi = int(head_offsets[group]), int(head_offsets[group + 1])
            if hhi - hlo == hi - lo:
                # Every arc in the group has a distinct head: nothing to reduce.
                any_reachable = reachable
            else:
                # Segment-OR over each head's run of arcs, on packed bits: a
                # bitwise reduceat over (arcs, width/8) bytes is an order of
                # magnitude cheaper than logical_or.reduceat on unpacked bools.
                packed = np.packbits(reachable, axis=1)
                segment_or = np.bitwise_or.reduceat(
                    packed, head_starts[hlo:hhi], axis=0
                )
                any_reachable = np.unpackbits(
                    segment_or, axis=1, count=width
                ).view(np.bool_)
            group_heads = head_values[hlo:hhi]
            current = state[group_heads]
            improved = any_reachable & (current > label)
            settled = int(np.count_nonzero(improved))
            if settled:
                np.putmask(current, improved, label)
                state[group_heads] = current
                # Saturation early-exit: once every entry is settled, no
                # later (larger) label can improve anything.
                unsettled -= settled
                if unsettled == 0:
                    saturated = True
                    break
        return groups_scanned, saturated

    def _forward_single(
        self, csr, state: np.ndarray, first_group: int
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
        return groups_scanned, saturated

    # ------------------------------------------------------------------ #
    # reverse (descending labels, latest departures)
    # ------------------------------------------------------------------ #
    def reverse_sweep(self, csr, state: np.ndarray, last_group: int) -> tuple[int, bool]:
        if state.shape[1] == 1:
            return self._reverse_single(csr, state[:, 0], last_group)
        labels = csr.labels
        offsets = csr.arc_offsets
        heads = csr.heads
        tail_values = csr.tail_values
        tail_offsets = csr.tail_offsets
        tail_starts = csr.tail_starts
        width = state.shape[1]
        groups_scanned = 0
        saturated = False
        if last_group <= 0:
            return groups_scanned, saturated
        # The unreached entries: everything below the first scanned label.
        unsettled = int(np.count_nonzero(state < labels[last_group - 1]))
        for group in range(last_group - 1, -1, -1):
            groups_scanned += 1
            label = int(labels[group])
            lo, hi = int(offsets[group]), int(offsets[group + 1])
            # Which columns each arc of this group can forward towards.
            reachable = state[heads[lo:hi]] > label
            if not reachable.any():
                continue
            tlo, thi = int(tail_offsets[group]), int(tail_offsets[group + 1])
            if thi - tlo == hi - lo:
                # Every arc in the group has a distinct tail: nothing to reduce.
                any_reachable = reachable
            else:
                # Same packed-bit segment-OR as the forward engine, over each
                # tail's run of arcs.
                packed = np.packbits(reachable, axis=1)
                segment_or = np.bitwise_or.reduceat(
                    packed, tail_starts[tlo:thi], axis=0
                )
                any_reachable = np.unpackbits(
                    segment_or, axis=1, count=width
                ).view(np.bool_)
            group_tails = tail_values[tlo:thi]
            current = state[group_tails]
            improved = any_reachable & (current < label)
            settled = int(np.count_nonzero(improved))
            if settled:
                np.putmask(current, improved, label)
                state[group_tails] = current
                # Saturation early-exit: once every entry is settled, no
                # later (smaller) label can improve anything.
                unsettled -= settled
                if unsettled == 0:
                    saturated = True
                    break
        return groups_scanned, saturated

    def _reverse_single(
        self, csr, state: np.ndarray, last_group: int
    ) -> tuple[int, bool]:
        labels = csr.labels
        offsets = csr.arc_offsets
        tails = csr.tails
        heads = csr.heads
        groups_scanned = 0
        saturated = False
        for group in range(last_group - 1, -1, -1):
            groups_scanned += 1
            label = int(labels[group])
            lo, hi = int(offsets[group]), int(offsets[group + 1])
            usable = state[heads[lo:hi]] > label
            if not usable.any():
                continue
            np.maximum.at(state, tails[lo:hi][usable], label)
            if int(state.min()) >= label:
                saturated = True
                break
        return groups_scanned, saturated

    def __repr__(self) -> str:
        return "NumpyBackend()"
