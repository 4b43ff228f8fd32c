"""The Numba-jitted sweep backend.

Compiles the shared scalar loop of :mod:`repro.core.kernels._loops` with
``numba.njit(cache=True, nogil=True)`` the first time the backend is warmed
up; reverse sweeps run the same machine code over the time-reversed layout.
``cache=True`` persists the machine code next to the source, so the
multi-second first-call compilation is paid once per machine, not once per
process — spawned engine workers and fresh CLI runs load it from disk.

The backend stays registered even when numba is not installed; its
:meth:`availability` then reports why, and the ambient selection paths fall
back to the ``numpy`` reference (see :mod:`repro.core.kernels`).  A failure
*inside* compilation (unsupported numba/NumPy pairing, broken cache dir, …)
is caught by the registry's warm-up wrapper the same way.
"""

from __future__ import annotations

import numpy as np

from . import _loops

__all__ = ["NumbaBackend"]


def _tiny_csr_arrays() -> tuple[np.ndarray, ...]:
    """A 2-vertex, 2-arc instance: enough to drive the loop through a JIT."""
    labels = np.array([1, 2], dtype=np.int64)
    arc_offsets = np.array([0, 1, 2], dtype=np.int64)
    tails = np.array([0, 1], dtype=np.int64)
    heads = np.array([1, 0], dtype=np.int64)
    return labels, arc_offsets, tails, heads


class NumbaBackend:
    """JIT-compiled execution of the shared scalar sweep loop."""

    name = "numba"
    priority = 30

    def __init__(self) -> None:
        self._forward = None

    def availability(self) -> str | None:
        if self._forward is not None:
            return None
        try:
            import numba  # noqa: F401
        except Exception as exc:  # pragma: no cover - depends on environment
            return f"numba is not importable: {exc!r}"
        return None

    def warm_up(self) -> None:
        """Compile (or load from numba's on-disk cache) the sweep loop."""
        if self._forward is not None:
            return
        import numba

        forward = numba.njit(cache=True, nogil=True)(_loops.forward_sweep_loop)
        labels, arc_offsets, tails, heads = _tiny_csr_arrays()
        state = np.full((2, 1), 3, dtype=np.int64)
        state[0, 0] = 0
        settled = np.zeros(2, dtype=np.int64)
        last = np.zeros(1, dtype=np.int64)
        forward(labels, arc_offsets, tails, heads, state, 0, settled, last)
        self._forward = forward

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
        self.warm_up()
        return _loops.run_sweep_loop(
            self._forward, csr, reached, first_group, arrivals, settled, last
        )

    # The time-reversed layout makes a reverse sweep a forward one.
    reverse_sweep = forward_sweep

    def __repr__(self) -> str:
        state = "compiled" if self._forward is not None else "not compiled"
        return f"NumbaBackend({state})"
