"""E1 bench — temporal diameter of the normalized U-RT clique (Theorem 4).

Three layers:

* ``test_bench_experiment_e1`` regenerates the E1 table (quick preset) and
  records whether the measured shape matches the paper;
* kernel micro-benchmarks time the batched all-pairs sweep that dominates
  E1's cost at several clique sizes;
* ``TestBatchedVsLooped`` measures the batched multi-source engine
  (:func:`repro.core.journeys.earliest_arrival_matrix` over the cached CSR
  time-arc layout) against the looped per-source path and asserts the ≥ 3×
  speedup the engine is required to deliver at n = 256 (see
  ``docs/performance.md`` for recorded numbers).  The gate alternates its
  legs over :data:`GATE_INSTANCES` instances and needs a looped leg of at
  least :data:`SERIAL_FLOOR_S`; below it a single scheduler stall decides
  the ratio, so it skips with the measured time instead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.distances import temporal_diameter, temporal_distance_matrix
from repro.core.journeys import earliest_arrival_matrix, earliest_arrival_times
from repro.core.labeling import normalized_urtn
from repro.experiments.registry import run_experiment
from repro.graphs.generators import complete_graph

#: Instances the gate alternates its legs over: enough for a looped leg of
#: about 3 s on a 2-core box.
GATE_INSTANCES = 56
#: Shortest looped leg the gate asserts on.
SERIAL_FLOOR_S = 1.0


def _looped(network):
    """The looped per-source path: one single-source sweep per row."""
    return np.stack([earliest_arrival_times(network, s) for s in range(network.n)])


def _timed(path, network):
    start = time.perf_counter()
    return path(network), time.perf_counter() - start


def test_bench_experiment_e1(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E1", "quick", seed=101), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("n", [64, 128, 256])
def test_bench_temporal_diameter_kernel(benchmark, n):
    clique = complete_graph(n, directed=True)
    network = normalized_urtn(clique, seed=5)
    result = benchmark(lambda: temporal_diameter(network))
    assert result <= n


def test_bench_distance_matrix_clique_192(benchmark):
    clique = complete_graph(192, directed=True)
    network = normalized_urtn(clique, seed=6)
    matrix = benchmark(lambda: temporal_distance_matrix(network))
    assert matrix.shape == (192, 192)


class TestBatchedVsLooped:
    """Batched engine vs the looped per-source path, same instances."""

    @pytest.fixture(scope="class")
    def clique_256(self):
        clique = complete_graph(256, directed=True)
        return normalized_urtn(clique, seed=7)

    def test_bench_batched_engine_256(self, benchmark, clique_256):
        matrix = benchmark(lambda: earliest_arrival_matrix(clique_256))
        assert matrix.shape == (256, 256)

    def test_bench_looped_path_256(self, benchmark, clique_256):
        matrix = benchmark.pedantic(lambda: _looped(clique_256), rounds=1, iterations=1)
        assert matrix.shape == (256, 256)

    def test_batched_speedup_at_least_3x(self, perf_record):
        """Acceptance criterion: ≥ 3× over the looped path at n = 256."""
        # Alternate the legs on every instance and keep each leg's best of
        # two runs there: a slow phase of the host then falls on both legs,
        # and a scheduler stall has to hit both runs of a leg to count.
        clique = complete_graph(256, directed=True)
        batched_seconds = looped_seconds = 0.0
        for index in range(GATE_INSTANCES):
            network = normalized_urtn(clique, seed=7 + index)
            network.timearc_csr  # build the cache outside both timed regions
            batched_best = looped_best = float("inf")
            for _ in range(2):
                batched, seconds = _timed(earliest_arrival_matrix, network)
                batched_best = min(batched_best, seconds)
                looped, seconds = _timed(_looped, network)
                looped_best = min(looped_best, seconds)
            assert np.array_equal(batched, looped)
            batched_seconds += batched_best
            looped_seconds += looped_best

        speedup = looped_seconds / batched_seconds
        perf_record(
            name="batched_sweep_speedup",
            n=256,
            instances=GATE_INSTANCES,
            batched_seconds=batched_seconds,
            looped_seconds=looped_seconds,
            speedup=speedup,
            required=3.0,
            serial_floor_seconds=SERIAL_FLOOR_S,
        )
        if looped_seconds < SERIAL_FLOOR_S:
            pytest.skip(
                f"looped leg took {looped_seconds * 1e3:.0f} ms, below the "
                f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide "
                "the ratio"
            )
        assert speedup >= 3.0, (
            f"batched engine only {speedup:.1f}x faster than the looped path "
            f"({batched_seconds * 1e3:.1f} ms vs {looped_seconds * 1e3:.1f} ms)"
        )
