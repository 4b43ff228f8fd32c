"""Scalar sweep loop body shared by the compiled kernel backends.

:func:`forward_sweep_loop` is the *entire* algorithmic content of the
compiled backends: the ascending-label advance, written as plain Python
loops over the flat CSR column arrays.  Reverse sweeps run it over the
time-reversed layout.  It is deliberately free of any NumPy vectorisation,
any Python-object state and any closure capture so that

* :mod:`repro.core.kernels.numba_backend` can compile it unchanged with
  ``numba.njit(cache=True)``;
* :mod:`repro.core.kernels.python_backend` can run it interpreted, which
  keeps the exact loop logic under test (bit-identical to the NumPy
  reference) even in environments where no JIT compiler is installed.

Semantics (identical to the NumPy reference backend):

* groups ascend; an arc labelled ``l`` forwards for a column ``s`` exactly
  when ``state[tail, s] < l`` and improves the head exactly when
  ``state[head, s] > l``.  In-place updates inside a group are safe: an
  update writes exactly ``l``, which can neither enable (``l < l`` is
  false) nor disable (only entries ``> l`` are overwritten) another arc of
  the same group, so the result is independent of arc order;
* an entry *settles* at that write, at most once per sweep, so the write
  is also where the optional outputs are filled: ``settled[group]`` counts
  it and ``last[column]`` takes the label;
* **saturation early-exit** — checked only after a group that improved
  something, exactly like the NumPy backend: once no entry exceeds the
  current label, no later group can change anything.

:func:`run_sweep_loop` adapts the loop to the kernel protocol's packed
``reached`` bitset for both backends; it is ordinary NumPy code and is not
compiled.
"""

from __future__ import annotations

import numpy as np

from ...types import UNREACHABLE

__all__ = ["forward_sweep_loop", "run_sweep_loop"]

#: Working-state value of an entry reached before the sweep: below every label.
_STARTED = np.iinfo(np.int64).min
#: Stands in for an output the caller did not ask for.
_NOT_ASKED = np.zeros(0, dtype=np.int64)


def forward_sweep_loop(
    labels, arc_offsets, tails, heads, state, first_group, settled, last
):
    """Ascending-label advance of the earliest-arrival state, in place.

    ``settled`` and ``last`` are filled when they are non-empty.
    """
    num_groups = labels.shape[0]
    n = state.shape[0]
    width = state.shape[1]
    count_settles = settled.shape[0] != 0
    track_last = last.shape[0] != 0
    groups_scanned = 0
    saturated = False
    for group in range(first_group, num_groups):
        groups_scanned += 1
        label = labels[group]
        improved = False
        for arc in range(arc_offsets[group], arc_offsets[group + 1]):
            tail_row = state[tails[arc]]
            head_row = state[heads[arc]]
            for column in range(width):
                if tail_row[column] < label and head_row[column] > label:
                    head_row[column] = label
                    improved = True
                    if count_settles:
                        settled[group] += 1
                    if track_last:
                        last[column] = label
        if improved:
            saturated = True
            for vertex in range(n):
                row = state[vertex]
                for column in range(width):
                    if row[column] > label:
                        saturated = False
                        break
                if not saturated:
                    break
            if saturated:
                break
    return groups_scanned, saturated


def run_sweep_loop(loop, csr, reached, first_group, arrivals, settled, last):
    """One kernel-protocol sweep on ``loop`` (jitted or interpreted).

    The loop advances an ``int64`` state: ``arrivals`` when the caller asked
    for them, else a working state unpacked from ``reached`` whose columns
    are the bits set at the start.  Afterwards the reached entries are ORed
    into ``reached``.
    """
    state = arrivals
    if state is None:
        width = int(np.bitwise_count(np.bitwise_or.reduce(reached, axis=0)).sum())
        started = np.unpackbits(reached.view(np.uint8), axis=1, count=width)
        state = np.where(started.view(np.bool_), _STARTED, UNREACHABLE)
    groups, saturated = loop(
        csr.labels,
        csr.arc_offsets,
        csr.tails,
        csr.heads,
        state,
        first_group,
        _NOT_ASKED if settled is None else settled,
        _NOT_ASKED if last is None else last,
    )
    reached.view(np.uint8)[:, : -(-state.shape[1] // 8)] |= np.packbits(
        state < UNREACHABLE, axis=1
    )
    return int(groups), bool(saturated)
