"""Telemetry overhead bench — the disabled path must cost (almost) nothing.

Two layers:

* pytest-benchmark timings of the n = 256 all-pairs arrival sweep with
  telemetry off and with a live recorder attached, plus a micro-benchmark of
  the bare ``telemetry.active()`` dispatch the kernels run per call;
* ``test_telemetry_disabled_overhead_under_2_percent`` — the acceptance
  gate behind the "< 2 % regression" criterion: the instrumented kernels
  emit nothing per loop iteration, only one record per sweep, so a sweep
  with a recorder attached must stay within 2 % (plus a small absolute
  slack for timer noise) of the telemetry-off sweep.  Enabled bounding
  disabled this tightly is what pins the disabled path at the seed's cost:
  the off-path does strictly less work than the on-path.  The gate
  alternates the two conditions over :data:`ROUNDS` rounds and sums each,
  and needs a telemetry-off leg of at least :data:`SERIAL_FLOOR_S`; below
  it a single scheduler stall decides the comparison, so it skips with the
  measured time instead.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import complete_graph, normalized_urtn, telemetry
from repro.core.journeys import earliest_arrival_matrix

N = 256
SEED = 2014
#: Rounds the gate alternates its legs over, one sweep per leg per round:
#: enough for a telemetry-off leg of about 2 s on a 2-core box, twice the
#: floor (600 rounds read 0.90–1.23 s there once sweeps got faster).
ROUNDS = 1200
#: Shortest telemetry-off leg the gate asserts on.
SERIAL_FLOOR_S = 1.0
#: Relative gate plus absolute slack: 2 % is well above the one telemetry
#: record a sweep emits, and 1 ms absorbs timer jitter.
RELATIVE_BOUND = 1.02
ABSOLUTE_SLACK_SECONDS = 1e-3


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def clique_256():
    network = normalized_urtn(complete_graph(N, directed=True), seed=SEED)
    network.timearc_csr  # warm the CSR cache so every sample times sweeps only
    return network


def test_bench_sweep_telemetry_disabled(benchmark, clique_256):
    assert not telemetry.active()
    matrix = benchmark(lambda: earliest_arrival_matrix(clique_256))
    assert matrix.shape == (N, N)


def test_bench_sweep_telemetry_enabled(benchmark, clique_256):
    with telemetry.session() as recorder:
        matrix = benchmark(lambda: earliest_arrival_matrix(clique_256))
    assert matrix.shape == (N, N)
    assert recorder.counters["kernel.forward.sweeps"] >= 1


def test_bench_active_dispatch(benchmark):
    """The whole per-call cost of disabled telemetry: one active() check."""
    assert not telemetry.active()
    benchmark(telemetry.active)


def test_telemetry_disabled_overhead_under_2_percent(clique_256, perf_record):
    """Acceptance gate: a live recorder adds < 2 % to the n = 256 sweep."""
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"only {cpus} usable core(s); timing noise swamps the gate")
    network = clique_256

    def sample() -> float:
        start = time.perf_counter()
        earliest_arrival_matrix(network)
        return time.perf_counter() - start

    def sample_enabled() -> float:
        with telemetry.session():
            return sample()

    # Warm both paths once before sampling.
    sample()
    sample_enabled()

    # Alternate the two conditions every round, swapping which runs first,
    # and sum each over the rounds: drift (thermal, scheduler, the host's
    # slow phases) then hits both equally, and a stall costs one round's
    # share of a leg instead of deciding the comparison.
    assert not telemetry.active()
    disabled_seconds = enabled_seconds = 0.0
    for round_index in range(ROUNDS):
        if round_index % 2:
            enabled_seconds += sample_enabled()
            disabled_seconds += sample()
        else:
            disabled_seconds += sample()
            enabled_seconds += sample_enabled()

    overhead = enabled_seconds / disabled_seconds - 1.0
    perf_record(
        name="telemetry_overhead",
        n=N,
        rounds=ROUNDS,
        disabled_seconds=disabled_seconds,
        enabled_seconds=enabled_seconds,
        overhead_fraction=overhead,
        relative_bound=RELATIVE_BOUND,
        absolute_slack_seconds=ABSOLUTE_SLACK_SECONDS,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if disabled_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"telemetry-off leg took {disabled_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide the gate"
        )
    assert enabled_seconds <= disabled_seconds * RELATIVE_BOUND + ABSOLUTE_SLACK_SECONDS, (
        f"telemetry-on sweeps {enabled_seconds * 1e3:.1f} ms vs telemetry-off "
        f"{disabled_seconds * 1e3:.1f} ms over {ROUNDS} rounds "
        f"({overhead * 100:+.2f} %); the per-sweep record must stay under 2 % "
        f"at n = {N}"
    )
