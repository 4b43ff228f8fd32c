"""Gauges of the host's current speed, and a pass clock that corrects for it.

On a shared host the CPU runs the same code up to ~1.8x slower in phases
that last from seconds to minutes, because other tenants share its core,
caches and memory bus.  A wall clock alone measures those phases as much as
the program.  A *gauge* is a fixed piece of work that belongs to the
benchmark, never to the program under test; how long it takes now, against
how long it takes in a quiet phase, is how much slower the host is now.
Each gauge does the kind of work its workload's time goes to:

- ``interpreter``: a pure-Python loop (interpreter dispatch, L1-resident);
- ``memory``: elementwise passes over a 20 MB int64 array, the size of the
  ``blocked_grid`` tile state, and a gather and scatter of random rows of
  it, so it feels the same cache and memory-bus contention as that
  workload's sweeps.

:class:`SpeedClock` runs its gauge every :data:`SAMPLE_INTERVAL_S` while a
pass runs and takes the gauge's own time out of the pass.  Each stretch of
work between two gauge runs is scaled by ``quiet-phase gauge time / mean(the
two gauge times)``, so ``norm_s`` is the pass's time at the host's quiet-phase speed.
A change to the program moves ``norm_s`` as it moves the wall clock; a slow
phase of the host moves the gauges with it and cancels out.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

#: How often a pass samples its gauge; each sample costs about 4 % of this.
SAMPLE_INTERVAL_S = 0.2

_INTERPRETER_LOOP = 100_000
_MEMORY_SHAPE = (10_000, 256)
_MEMORY_PASSES = 2
_MEMORY_GATHER_ROWS = 2_000


def _interpreter_gauge() -> Callable[[], float]:
    def run() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(_INTERPRETER_LOOP):
            total += i * i % 7
        return time.perf_counter() - start

    return run


def _memory_gauge() -> Callable[[], float]:
    import numpy as np

    array = np.arange(_MEMORY_SHAPE[0] * _MEMORY_SHAPE[1], dtype=np.int64).reshape(_MEMORY_SHAPE)
    rows = np.random.default_rng(0).integers(0, _MEMORY_SHAPE[0], size=_MEMORY_GATHER_ROWS)
    gathered = np.empty((_MEMORY_GATHER_ROWS, _MEMORY_SHAPE[1]), dtype=np.int64)

    def run() -> float:
        start = time.perf_counter()
        for _ in range(_MEMORY_PASSES):
            np.maximum(array, 50, out=array)
            array.max()
        np.take(array, rows, axis=0, out=gathered)
        array[rows] = gathered
        return time.perf_counter() - start

    return run


#: gauge name -> (factory, its quiet-phase time in seconds: the 10th
#: percentile of 574 runs inside blocked_grid passes on a 2-core x86-64 VM,
#: Xeon, L3 105 MiB, Python 3.11, numpy 2.4).
GAUGES: dict[str, tuple[Callable[[], Callable[[], float]], float]] = {
    "interpreter": (_interpreter_gauge, 0.0071),
    "memory": (_memory_gauge, 0.0096),
}


class SpeedClock:
    """Times a pass net of the host's slow phases.

    Used as a context manager around the timed phase.  With ``timer`` the
    gauge runs from a ``SIGALRM`` handler, so a pass that runs entirely in
    this process's main thread needs no hook; without it the caller calls
    :meth:`maybe_sample` between units of work (a client waiting on another
    process must not run the gauge while that process works).
    """

    def __init__(self, gauge: str, timer: bool) -> None:
        factory, self.nominal_s = GAUGES[gauge]
        # Built once: the memory gauge allocates its 20 MB array here.
        self.run_gauge = factory()
        self.timer = timer
        self.work_s: list[float] = []
        self.gauge_s: list[float] = []
        self._resumed = 0.0
        self._previous_handler = None

    def start(self) -> None:
        self.gauge_s.append(self.run_gauge())
        if self.timer:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._resumed = time.perf_counter()

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.work_s.append(time.perf_counter() - self._resumed)
        self.gauge_s.append(self.run_gauge())

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        self.work_s.append(time.perf_counter() - self._resumed)
        self.gauge_s.append(self.run_gauge())
        self._resumed = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._resumed >= SAMPLE_INTERVAL_S:
            self.sample()

    @property
    def raw_s(self) -> float:
        """The pass's wall clock without the gauge runs."""
        return sum(self.work_s)

    @property
    def norm_s(self) -> float:
        """The pass's time at the host's quiet-phase speed."""
        return sum(
            work * 2 * self.nominal_s / (before + after)
            for work, before, after in zip(self.work_s, self.gauge_s, self.gauge_s[1:])
        )

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown over the pass, as its gauge saw it."""
        return self.raw_s / self.norm_s if self.norm_s else 1.0
