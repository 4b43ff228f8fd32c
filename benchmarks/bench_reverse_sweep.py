"""Reverse sweep bench — single-target reverse query vs all-pairs fallback.

Before the reverse engine existed, the only way to answer a target-side
question ("who can reach vertex ``t``, and departing when?") was the forward
all-pairs sweep: compute the full ``(n, n)`` arrival matrix and read one
column.  The reverse engine answers it in **one** single-target sweep over
the time-reversed CSR layout.  Two layers:

* pytest-benchmark timings of both paths on the n = 256 normalized directed
  clique;
* ``test_reverse_query_speedup_at_least_5x`` — the acceptance gate: the
  single-target reverse query must deliver ≥ 5× wall-clock over the
  all-pairs forward fallback, with identical answers.  On a single-core
  runner the gate skips, like the other benchmark gates — timing noise on
  shared sub-2-core runners swamps the effect (``docs/performance.md``
  records real numbers).  The gate alternates its legs over
  :data:`GATE_ROUNDS` rounds and needs a forward leg of at least
  :data:`SERIAL_FLOOR_S`; below it a single scheduler stall decides the
  ratio, so it skips with the measured time instead.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import (
    NEVER,
    UNREACHABLE,
    NetworkAnalysis,
    complete_graph,
    earliest_arrival_matrix,
    normalized_urtn,
)

N = 256
INSTANCES = 8
TARGET = 0
SEED = 2032
#: Rounds the gate alternates its legs over, each leg querying every
#: instance once per round: enough for a forward leg of about 2.5 s on a
#: 2-core box.
GATE_ROUNDS = 64
#: Shortest forward leg the gate asserts on.
SERIAL_FLOOR_S = 1.0

_CLIQUE = complete_graph(N, directed=True)


def _instances() -> list:
    networks = [normalized_urtn(_CLIQUE, seed=SEED + i) for i in range(INSTANCES)]
    for network in networks:
        # Warm both CSR layouts so the gate times sweeps, not sorting.
        network.timearc_csr
        network.reverse_timearc_csr
    return networks


def _reverse_query(network) -> np.ndarray:
    """The engine under test: one single-target reverse sweep."""
    return NetworkAnalysis(network).distances_to([TARGET])[0]


def _forward_fallback(network) -> np.ndarray:
    """The historical path: full forward all-pairs sweep, read one column.

    The column holds arrival times; converted to the reverse temporal
    distance convention (``lifetime + 1 − departure``) the two paths must
    agree exactly on reachability, and the reverse path also reports *when*
    to leave — strictly more information for strictly less work.
    """
    column = earliest_arrival_matrix(network)[:, TARGET]
    return column < UNREACHABLE


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _wall_clock(runner, networks) -> tuple[list, float]:
    start = time.perf_counter()
    results = [runner(network) for network in networks]
    return results, time.perf_counter() - start


def test_bench_single_target_reverse_query(benchmark):
    networks = _instances()
    results = benchmark.pedantic(
        lambda: [_reverse_query(network) for network in networks],
        rounds=1,
        iterations=1,
    )
    assert len(results) == INSTANCES


def test_bench_all_pairs_forward_fallback(benchmark):
    networks = _instances()
    results = benchmark.pedantic(
        lambda: [_forward_fallback(network) for network in networks],
        rounds=1,
        iterations=1,
    )
    assert len(results) == INSTANCES


def test_reverse_query_speedup_at_least_5x(perf_record):
    """Acceptance gate: one reverse sweep must beat the all-pairs fallback."""
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"only {cpus} usable core(s); timing noise swamps the gate")
    networks = _instances()
    # Alternate the legs every round and sum each leg over the rounds: a
    # slow phase of the host then falls on both legs, and a scheduler stall
    # costs one round's share of a leg instead of deciding the ratio.
    reverse_seconds = forward_seconds = 0.0
    for _ in range(GATE_ROUNDS):
        reverse, seconds = _wall_clock(_reverse_query, networks)
        reverse_seconds += seconds
        forward, seconds = _wall_clock(_forward_fallback, networks)
        forward_seconds += seconds

    for reverse_distances, forward_reachable in zip(reverse, forward):
        np.testing.assert_array_equal(
            reverse_distances < UNREACHABLE,
            forward_reachable,
            err_msg="reverse and forward paths disagree on reachability",
        )
    speedup = forward_seconds / reverse_seconds
    perf_record(
        name="reverse_sweep_speedup",
        n=N,
        instances=INSTANCES,
        rounds=GATE_ROUNDS,
        reverse_seconds=reverse_seconds,
        forward_seconds=forward_seconds,
        speedup=speedup,
        required=5.0,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if forward_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"forward leg took {forward_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide the ratio"
        )
    assert speedup >= 5.0, (
        f"single-target reverse query only {speedup:.2f}x faster than the "
        f"all-pairs forward fallback ({reverse_seconds * 1e3:.0f} ms vs "
        f"{forward_seconds * 1e3:.0f} ms, required 5.0x)"
    )
