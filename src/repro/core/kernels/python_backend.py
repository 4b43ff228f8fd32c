"""The interpreted scalar backend — the compiled backends' logic, under test.

Runs the exact loop body of :mod:`repro.core.kernels._loops` (the one the
numba backend JIT-compiles) in the plain Python interpreter.  It is orders
of magnitude slower than the ``numpy`` reference and exists purely so the
cross-validation suites can pin the *scalar loop logic* bit-identical to
the reference in every environment — including the NumPy-only containers
where no JIT compiler is installed.

Never auto-selected (negative priority); request it explicitly with
``backend="python"`` / ``--kernel-backend python``.
"""

from __future__ import annotations

import numpy as np

from ._loops import forward_sweep_loop, run_sweep_loop

__all__ = ["PythonLoopBackend"]


class PythonLoopBackend:
    """Interpreted execution of the shared scalar sweep loop."""

    name = "python"
    priority = -10

    def availability(self) -> str | None:
        return None

    def warm_up(self) -> None:
        return None

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
        return run_sweep_loop(
            forward_sweep_loop, csr, reached, first_group, arrivals, settled, last
        )

    # The time-reversed layout makes a reverse sweep a forward one.
    reverse_sweep = forward_sweep

    def __repr__(self) -> str:
        return "PythonLoopBackend()"
