"""The vectorised NumPy sweep backend — the always-available reference.

For ``width > 1`` the sweep keeps a packed ``reached`` bitset beside the
state: one zero-padded row of ``uint64`` words per vertex, one bit per
column.  By the protocol's precondition every entry starts either below the
first scanned label (a column's start value) or beyond every label
(unreached), and an entry the sweep settles takes the current label, which
every later group exceeds.  So at group ``g`` the bit of ``state[v, s]`` is
set exactly when ``state[v, s] < labels[g]``, and the two per-group tests
(a tail forwards where ``state < label``, a head improves where
``state > label``) are reads of that one bit.  Per group the kernel gathers
the tail words, ORs each head's run of arcs with ``np.bitwise_or.reduceat``,
and sets the bits the heads lack (``new``).  Only then does it touch the
``int64`` state: it unpacks ``new``, ``putmask``s the label into the
gathered head rows and scatters them back.  A group with more than
``_ROW_SUBSET_ENTRIES`` head entries first drops the heads that gained no
bit, so the write-back touches only the rows that settle.

Saturation is detected by counting, not by rescanning the state.  The one
``state < labels[first_group]`` mask the bits are packed from also counts
the unreached entries; each group subtracts the bits it sets, and the sweep
is saturated when the count reaches zero, which is the group at which
``state.max() <= label`` would first hold.  ``tests/test_kernel_backends.py``
pins these exit points against the scalar loop's own scan.

A dedicated ``width == 1`` path keeps the single-source / single-target
calls on the cheaper 1-D ``np.minimum.at`` code.  Reverse sweeps run the
same code over the time-reversed layout.  Every other backend is pinned
bit-identical to this one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumpyBackend"]

#: Head entries (heads × width) above which a group writes back only the
#: heads that gained a bit.  Finding them costs three more numpy calls: on
#: wide tiles, where few heads settle anything, that saves most of the
#: unpack, gather and scatter; on the few-arc groups of small instances the
#: calls cost more than they save.
_ROW_SUBSET_ENTRIES = 8192


class NumpyBackend:
    """Vectorised reference implementation of the sweep."""

    name = "numpy"
    priority = 10

    def availability(self) -> str | None:
        return None

    def warm_up(self) -> None:
        return None

    def forward_sweep(self, csr, state: np.ndarray, first_group: int) -> tuple[int, bool]:
        if state.shape[1] == 1:
            return self._forward_single(csr, state[:, 0], first_group)
        labels = csr.labels.tolist()
        offsets = csr.arc_offsets.tolist()
        head_offsets = csr.head_offsets.tolist()
        tails = csr.tails
        head_values = csr.head_values
        head_starts = csr.head_starts
        n, width = state.shape
        groups_scanned = 0
        saturated = False
        if first_group >= len(labels):
            return groups_scanned, saturated
        # Bit s of reached[v] is set while state[v, s] is below the label.
        # The mask is dropped before the loop: it is the sweep's largest
        # temporary, and blocked runs are sized by their peak memory.
        below = state < labels[first_group]
        unsettled = state.size - int(np.count_nonzero(below))
        reached = np.zeros((n, -(-width // 64)), dtype=np.uint64)
        reached.view(np.uint8)[:, : -(-width // 8)] = np.packbits(below, axis=1)
        del below
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
            if (hhi - hlo) * width > _ROW_SUBSET_ENTRIES:
                settling = np.flatnonzero(new.any(axis=1))
                heads, new = heads[settling], new[settling]
            improved = np.unpackbits(
                new.view(np.uint8), axis=1, count=width
            ).view(np.bool_)
            rows = state[heads]
            np.putmask(rows, improved, labels[group])
            state[heads] = rows
            # Saturation early-exit: once every entry is settled, no later
            # (larger) label can improve anything.
            unsettled -= int(np.count_nonzero(improved))
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

    # A reverse sweep is this advance over the time-reversed layout.  The
    # alias keeps one function under both names, so a profiler that wraps
    # ``reverse_sweep`` still sees reverse sweeps apart from forward ones.
    reverse_sweep = forward_sweep

    def __repr__(self) -> str:
        return "NumpyBackend()"
