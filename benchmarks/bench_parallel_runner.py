"""Parallel Monte-Carlo engine bench — jobs=1 vs jobs=N on the E1 workload.

Two layers:

* pytest-benchmark timings of ``run_trials`` on the E1 temporal-diameter
  workload, serial and with a 4-worker process pool;
* ``test_parallel_speedup_at_least_1_5x`` — the acceptance gate: at
  ``jobs = min(4, cores)`` the multiprocess executor must deliver ≥ 1.5×
  wall-clock over serial on a machine with at least 4 usable cores, with
  bit-identical results.  On 2–3 cores the bar drops to break-even (1.1×);
  on a single-core runner the gate skips — there is nothing to parallelise.
  The gate needs a serial leg of at least :data:`SERIAL_FLOOR_S`; below it
  the speedup measures fork overhead, so it skips with the measured time
  instead (see ``docs/performance.md`` for recorded numbers).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.montecarlo.experiment import Experiment
from repro.montecarlo.runner import run_trials
from repro.scenarios import ScenarioTrial, get_scenario

#: The E1 workload: one Θ(log n)-diameter clique instance per trial.  The
#: gate runs GATE_REPETITIONS trials, so its serial leg takes about 1.5 s on
#: a 2-core box in a fast phase of the host, 3.0–3.3 s in a slower one
#: (3.4–7.4 ms per trial).
WORKLOAD = Experiment(
    name="E1-temporal-diameter",
    trial=ScenarioTrial(get_scenario("E1")),
    parameters={"n": 256, "directed": True},
)
SEED = 314
GATE_REPETITIONS = 440
#: Shortest serial leg the gate asserts on.
SERIAL_FLOOR_S = 1.0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _wall_clock(jobs: int | None) -> tuple[object, float]:
    start = time.perf_counter()
    result = run_trials(WORKLOAD, repetitions=GATE_REPETITIONS, seed=SEED, jobs=jobs)
    return result, time.perf_counter() - start


def test_bench_run_trials_serial(benchmark):
    result = benchmark.pedantic(
        lambda: run_trials(WORKLOAD, repetitions=8, seed=SEED),
        rounds=1,
        iterations=1,
    )
    assert result.repetitions == 8


def test_bench_run_trials_jobs4(benchmark):
    result = benchmark.pedantic(
        lambda: run_trials(WORKLOAD, repetitions=8, seed=SEED, jobs=4),
        rounds=1,
        iterations=1,
    )
    assert result.repetitions == 8


def test_parallel_speedup_at_least_1_5x(perf_record):
    """Acceptance gate: multiprocess must beat serial on the E1 workload."""
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"only {cpus} usable core(s); parallel speedup is unmeasurable")
    jobs = min(4, cpus)
    required = 1.5 if cpus >= 4 else 1.1

    # Alternate the legs and keep each leg's best wall clock: a slow phase
    # of the host then falls on both legs, and a scheduler stall has to hit
    # every run of a leg to count.
    serial_seconds = parallel_seconds = float("inf")
    for _ in range(2):
        serial, seconds = _wall_clock(None)
        serial_seconds = min(serial_seconds, seconds)
        parallel, seconds = _wall_clock(jobs)
        parallel_seconds = min(parallel_seconds, seconds)

    assert serial.metrics == parallel.metrics, (
        f"jobs={jobs} must be bit-identical to serial for the same seed"
    )
    speedup = serial_seconds / parallel_seconds
    perf_record(
        name="parallel_runner_speedup",
        cpus=cpus,
        jobs=jobs,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
        speedup=speedup,
        required=required,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if serial_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"serial leg took {serial_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: the speedup would measure fork overhead"
        )
    assert speedup >= required, (
        f"jobs={jobs} only {speedup:.2f}x faster than serial on {cpus} cores "
        f"({parallel_seconds * 1e3:.0f} ms vs {serial_seconds * 1e3:.0f} ms, "
        f"required {required}x)"
    )
