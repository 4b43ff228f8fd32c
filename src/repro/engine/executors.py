"""Executors: where the units of a run actually execute.

Two kinds of work run through an :class:`Executor`: the shards of a
Monte-Carlo run (:class:`repro.engine.sharding.ShardWork`) and the points of
a direct-mode scenario (:class:`repro.scenarios.pipeline.DirectPoint`).  Both
are *units*: picklable objects with an ``index`` and a ``run()`` method.

* :class:`SerialExecutor` — runs units in-process, in index order.  This is
  the cross-validation reference: every other executor must reproduce its
  results bit for bit (see ``docs/parallel_engine.md``).
* :class:`MultiprocessExecutor` — fans units out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results are yielded in
  completion order; determinism is preserved because callers order them by
  unit index, not by arrival.

An executor is also a context manager: inside ``with executor:`` every
:meth:`~Executor.map` call shares one set of workers, started by the first
call that needs them and stopped when the outermost block exits.  A run of
many points (:func:`repro.scenarios.run_scenario`,
:meth:`repro.montecarlo.MonteCarloRunner.run_sweep`) holds its executor for
the whole run, so it starts one pool, not one per point.

Every executor runs every unit through the one worker entry
:func:`run_unit`, which records the unit's telemetry when the run's
:class:`RunContext` asks for it and ships it home in its :class:`UnitResult`.
"""

from __future__ import annotations

import abc
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Protocol, Sequence

from .. import telemetry
from ..exceptions import ConfigurationError
from ..utils.validation import check_positive_int

__all__ = [
    "RunContext",
    "WorkUnit",
    "UnitResult",
    "run_unit",
    "merge_telemetry",
    "Executor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "resolve_executor",
]


@dataclass(frozen=True)
class RunContext:
    """The parent's ambient settings, shipped with every unit of a run.

    Spawn-start-method workers re-import the world from scratch and inherit
    no active recorders, so the run snapshots "is anyone recording" once in
    the parent (:meth:`snapshot`) and :func:`run_unit` acts on it around
    every unit — in-process and in workers alike.
    """

    #: Record each unit's telemetry in a private recorder and ship it home.
    telemetry: bool = False

    @classmethod
    def snapshot(cls) -> "RunContext":
        """The calling thread's telemetry state."""
        return cls(telemetry=bool(telemetry.active()))


class WorkUnit(Protocol):
    """One schedulable, picklable piece of a run."""

    @property
    def index(self) -> int:
        """Position of the unit in its run; results are ordered by it."""

    def run(self) -> Any:
        """Do the work and return a picklable value."""


@dataclass(frozen=True)
class UnitResult:
    """What :func:`run_unit` returns for one unit."""

    index: int
    value: Any
    #: The unit's private recorder state (counters + timing moments), or
    #: ``None`` when the run had telemetry off.
    telemetry_state: Mapping[str, Any] | None = None


def run_unit(unit: WorkUnit, context: RunContext) -> UnitResult:
    """Run one unit under the run's context: the worker entry of every executor.

    A module-level function, so process pools can pickle it.  With
    telemetry on, the unit runs under a fresh recorder *isolated* on the
    calling thread, whose state ships home in the result; the caller folds
    those states into its recorders in ascending unit index
    (:func:`merge_telemetry`).  One code path for every executor is what
    makes a ``jobs=N`` run's merged counters equal a serial run's.
    """
    if not context.telemetry:
        return UnitResult(unit.index, unit.run())
    recorder = telemetry.TelemetryRecorder()
    with telemetry.isolated(recorder):
        value = unit.run()
    return UnitResult(unit.index, value, recorder.to_state())


def merge_telemetry(states: Iterable[Mapping[str, Any] | None]) -> None:
    """Fold unit telemetry states into every active recorder, in order.

    Counter merges are exact integer sums; the ascending order keeps the
    float summation of the timing moments reproducible.
    """
    recs = telemetry.active()
    for state in states:
        if state is not None:
            for rec in recs:
                rec.merge_state(state)


class Executor(abc.ABC):
    """Strategy for executing the units of a run.

    ``with executor:`` holds the executor's workers across the
    :meth:`map` calls inside the block; blocks nest, and the outermost one
    releases the workers on exit.  Executors without workers ignore it.
    """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    @property
    @abc.abstractmethod
    def jobs(self) -> int:
        """Maximum number of units in flight at once."""

    @abc.abstractmethod
    def map(
        self, units: Sequence[WorkUnit], context: RunContext
    ) -> Iterator[UnitResult]:
        """Run every unit through :func:`run_unit`, yielding results as they
        complete (any order)."""


class SerialExecutor(Executor):
    """In-process execution in unit order — the reference executor."""

    @property
    def jobs(self) -> int:
        return 1

    def map(
        self, units: Sequence[WorkUnit], context: RunContext
    ) -> Iterator[UnitResult]:
        for unit in units:
            yield run_unit(unit, context)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class MultiprocessExecutor(Executor):
    """Unit fan-out over a process pool.

    Parameters
    ----------
    jobs:
        Number of worker processes.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``fork`` where
        available (Linux) because it avoids re-importing numpy/scipy in every
        worker; pass ``"spawn"`` explicitly for environments where forking a
        threaded parent is unsafe.
    """

    def __init__(self, jobs: int, *, start_method: str | None = None) -> None:
        self._jobs = check_positive_int(jobs, "jobs")
        if start_method is None:
            # fork only where it is actually safe: macOS lists it but forking
            # a parent with scipy/Accelerate state loaded can abort the child,
            # which is why CPython made spawn the macOS default.
            if sys.platform.startswith("linux") and (
                "fork" in multiprocessing.get_all_start_methods()
            ):
                start_method = "fork"
            else:
                start_method = multiprocessing.get_start_method()
        self._start_method = start_method
        # The pool and the count of open blocks; threads sharing the
        # executor update both under the lock.
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._holds = 0

    @property
    def jobs(self) -> int:
        return self._jobs

    def __enter__(self) -> "MultiprocessExecutor":
        with self._lock:
            self._holds += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._holds -= 1
            pool = self._pool if self._holds == 0 else None
            if pool is not None:
                self._pool = None
        if pool is not None:
            # Joins every worker: none outlives the outermost block.
            pool.shutdown(wait=True, cancel_futures=True)

    def _held_pool(self) -> ProcessPoolExecutor:
        """The pool of the open block, started on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._jobs,
                    mp_context=multiprocessing.get_context(self._start_method),
                )
            return self._pool

    @property
    def start_method(self) -> str:
        """The multiprocessing start method used for worker processes."""
        return self._start_method

    def map(
        self, units: Sequence[WorkUnit], context: RunContext
    ) -> Iterator[UnitResult]:
        if not units:
            return
        if len(units) == 1 or self._jobs == 1:
            # No parallelism to exploit; skip the pool entirely.
            for unit in units:
                yield run_unit(unit, context)
            return
        with self:
            pool = self._held_pool()
            futures = [pool.submit(run_unit, unit, context) for unit in units]
            try:
                failure: BaseException | None = None
                for future in as_completed(futures):
                    if future.cancelled():
                        continue
                    exc = future.exception()
                    if exc is not None:
                        if failure is None:
                            failure = exc
                            # Stop scheduling queued units; units already
                            # running finish and are still yielded below, so
                            # the driver can checkpoint their work before the
                            # failure propagates.
                            for queued in futures:
                                queued.cancel()
                        continue
                    yield future.result()
                if failure is not None:
                    raise failure
            finally:
                # A consumer that stops early leaves no unit of this call
                # queued or running.
                for queued in futures:
                    queued.cancel()
                wait(futures)

    def __repr__(self) -> str:
        return (
            f"MultiprocessExecutor(jobs={self._jobs}, "
            f"start_method={self._start_method!r})"
        )


def resolve_executor(
    executor: Executor | None = None, jobs: int | None = None
) -> Executor:
    """Normalise the ``(executor, jobs)`` pair every engine entry point accepts.

    Exactly one of the two may be given: an explicit executor wins, ``jobs``
    larger than 1 builds a :class:`MultiprocessExecutor`, and everything else
    falls back to the serial reference executor.
    """
    if executor is not None:
        if jobs is not None and jobs != executor.jobs:
            raise ConfigurationError(
                f"jobs={jobs} conflicts with the explicit executor "
                f"({executor!r}); pass one or the other"
            )
        return executor
    if jobs is None:
        return SerialExecutor()
    try:
        jobs = check_positive_int(jobs, "jobs")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"jobs must be a positive integer, got {jobs!r}") from exc
    if jobs == 1:
        return SerialExecutor()
    return MultiprocessExecutor(jobs)
