"""Analysis-handle cache bench — shared ``NetworkAnalysis`` vs per-metric sweeps.

Two layers:

* pytest-benchmark timings of the 4-metric suite (temporal diameter +
  distance summary + ratio-to-log-n + strong reachability) on the n = 128
  directed clique, through the shared per-trial handle and through per-metric
  recomputation (a fresh throwaway handle per metric — what the historical
  free-function API costs);
* ``test_analysis_cache_speedup_at_least_2x`` — the acceptance gate: the
  shared handle must deliver ≥ 2× wall-clock over per-metric recomputation on
  that suite, with identical metric values.  On a single-core runner the gate
  skips, like the parallel-engine gate — shared CI runners below two cores
  produce timing noise larger than the effect.  The gate also needs a
  recomputation leg of at least :data:`SERIAL_FLOOR_S`; below it a single
  scheduler stall decides the ratio, so it skips with the measured time
  instead (see ``docs/performance.md`` for recorded numbers).
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping

import numpy as np
import pytest

from repro import complete_graph, normalized_urtn
from repro.scenarios.metrics import METRICS, TrialContext
from repro.scenarios.specs import MetricSpec

N = 128
INSTANCES = 12
SEED = 2014
#: Instances the gate streams through, one at a time: enough for a
#: recomputation leg of about 2 s on a 2-core box.
GATE_INSTANCES = 320
#: Shortest recomputation leg the gate asserts on.
SERIAL_FLOOR_S = 1.0

#: The gated 4-metric suite: three of the four need the all-pairs arrival
#: structure (diameter, summary fields, T_reach), one derives from an earlier
#: metric — exactly the shape Monte-Carlo scenarios run per trial.
SUITE = (
    MetricSpec("temporal_diameter"),
    MetricSpec(
        "distance_summary",
        {"fields": ["mean_temporal_distance", "temporal_radius", "reachable_fraction"]},
    ),
    MetricSpec("ratio_to_log_n"),
    MetricSpec("strong_reachability"),
)

_CLIQUE = complete_graph(N, directed=True)


def _instance(index: int):
    network = normalized_urtn(_CLIQUE, seed=SEED + index)
    network.timearc_csr  # warm the CSR cache so both paths time sweeps only
    return network


def _instances() -> list:
    return [_instance(i) for i in range(INSTANCES)]


def _run_suite_shared(network) -> dict[str, float]:
    """One TrialContext per trial: all metrics share one memoized handle."""
    ctx = TrialContext(
        graph=_CLIQUE, network=network, params={"n": N}, rng=np.random.default_rng(0)
    )
    for spec in SUITE:
        ctx.metrics.update(METRICS[spec.metric](ctx, spec.options))
    return dict(ctx.metrics)


def _run_suite_recompute(network) -> dict[str, float]:
    """Per-metric recomputation: every metric gets a fresh throwaway handle."""
    metrics: dict[str, float] = {}
    for spec in SUITE:
        ctx = TrialContext(
            graph=_CLIQUE,
            network=network,
            params={"n": N},
            rng=np.random.default_rng(0),
            metrics=dict(metrics),
        )
        metrics.update(METRICS[spec.metric](ctx, spec.options))
    return metrics


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seconds(runner, network) -> tuple[Mapping[str, Any], float]:
    start = time.perf_counter()
    metrics = runner(network)
    return metrics, time.perf_counter() - start


def test_bench_suite_shared_handle(benchmark):
    networks = _instances()
    results = benchmark.pedantic(
        lambda: [_run_suite_shared(network) for network in networks],
        rounds=1,
        iterations=1,
    )
    assert len(results) == INSTANCES


def test_bench_suite_per_metric_recompute(benchmark):
    networks = _instances()
    results = benchmark.pedantic(
        lambda: [_run_suite_recompute(network) for network in networks],
        rounds=1,
        iterations=1,
    )
    assert len(results) == INSTANCES


def test_analysis_cache_speedup_at_least_2x(perf_record):
    """Acceptance gate: the shared handle must beat per-metric recomputation."""
    cpus = _usable_cpus()
    if cpus < 2:
        pytest.skip(f"only {cpus} usable core(s); timing noise swamps the gate")

    # Alternate the legs on every instance and keep each leg's best of two
    # runs there: a slow phase of the host then falls on both legs, and a
    # scheduler stall has to hit both runs of a leg to count.
    shared_seconds = recompute_seconds = 0.0
    for index in range(GATE_INSTANCES):
        network = _instance(index)
        shared_best = recompute_best = float("inf")
        for _ in range(2):
            shared, seconds = _seconds(_run_suite_shared, network)
            shared_best = min(shared_best, seconds)
            recompute, seconds = _seconds(_run_suite_recompute, network)
            recompute_best = min(recompute_best, seconds)
        assert shared == recompute, (
            "the shared handle must produce identical metric values"
        )
        shared_seconds += shared_best
        recompute_seconds += recompute_best

    speedup = recompute_seconds / shared_seconds
    perf_record(
        name="analysis_cache_speedup",
        n=N,
        instances=GATE_INSTANCES,
        shared_seconds=shared_seconds,
        recompute_seconds=recompute_seconds,
        speedup=speedup,
        required=2.0,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if recompute_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"recomputation leg took {recompute_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide the ratio"
        )
    assert speedup >= 2.0, (
        f"shared handle only {speedup:.2f}x faster than per-metric "
        f"recomputation ({shared_seconds * 1e3:.0f} ms vs "
        f"{recompute_seconds * 1e3:.0f} ms, required 2.0x)"
    )
