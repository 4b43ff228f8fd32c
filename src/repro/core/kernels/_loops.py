"""Scalar sweep loop body shared by the compiled kernel backends.

This function is the *entire* algorithmic content of the compiled backends:
the ascending-label advance, written as plain Python loops over the flat CSR
column arrays.  Reverse sweeps run it over the time-reversed layout.  It is
deliberately free of any NumPy vectorisation, any Python-object state and
any closure capture so that

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
* **saturation early-exit** — checked only after a group that improved
  something, exactly like the NumPy backend: once no entry exceeds the
  current label, no later group can change anything.

The function mutates ``state`` — the ``(n, width)`` vertex-major int64
matrix — in place and returns ``(groups_scanned, saturated)`` for the
telemetry record.
"""

from __future__ import annotations

__all__ = ["forward_sweep_loop"]


def forward_sweep_loop(labels, arc_offsets, tails, heads, state, first_group):
    """Ascending-label advance of the earliest-arrival state, in place."""
    num_groups = labels.shape[0]
    n = state.shape[0]
    width = state.shape[1]
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

