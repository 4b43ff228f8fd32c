"""Service query path bench — warm handle-cache hits vs cold construction.

The service's ``POST /query`` endpoint rebuilds the requested temporal
network deterministically (cheap), fingerprints it, and looks the live
:class:`~repro.analysis_api.NetworkAnalysis` handle up in the bounded LRU.
A *cold* query therefore pays handle construction plus the first sweep; a
*warm* query pays the rebuild + fingerprint + a dictionary hit, with every
artifact served from the handle's memo.

Two layers:

* pytest-benchmark timings of cold construction and warm queries on the
  n = 256 directed clique;
* ``test_warm_query_at_least_10x_faster_than_cold`` — the acceptance gate:
  at n = 256 the warm-cache query must be ≥ 10× faster than cold handle
  construction, with identical answers.  The gate alternates its legs over
  :data:`ROUNDS` rounds and needs a cold leg of at least
  :data:`SERIAL_FLOOR_S`; below it a single scheduler stall decides the
  ratio, so it skips with the measured time instead.  The measured ratio is
  persisted to ``benchmarks/results/service_cache_warm_vs_cold.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.service import ServiceApp

N = 256
SEED = 2014
#: Rounds the gate alternates its legs over, one query per leg per round:
#: enough for a cold leg of about 1.5 s on a 2-core box in a fast phase of
#: the host, 2.6 s in a slower one (6–11 ms per cold query).
ROUNDS = 240
#: Shortest cold leg the gate asserts on.
SERIAL_FLOOR_S = 1.0
REQUIRED_SPEEDUP = 10.0

QUERY = {
    "op": "centrality",
    "measure": "harmonic",
    "graph": {"family": "clique", "params": {"n": N, "directed": True}},
    "labels": {"model": "uniform", "lifetime": N},
    "seed": SEED,
}


@pytest.fixture()
def app(tmp_path):
    service = ServiceApp(data_dir=tmp_path / "service-data")
    yield service
    service.close()


def _cold_query(service: ServiceApp) -> dict:
    """One cold query: empty the handle cache first, then pay the sweep."""
    service.cache.clear()
    return service.query(QUERY)


def bench_cold_handle_construction(benchmark, app):
    result = benchmark(_cold_query, app)
    assert not result["cache_hit"]
    benchmark.extra_info["n"] = N


def bench_warm_cache_query(benchmark, app):
    app.query(QUERY)  # populate the cache once
    result = benchmark(app.query, QUERY)
    assert result["cache_hit"]
    benchmark.extra_info["n"] = N


def test_warm_query_at_least_10x_faster_than_cold(app, perf_record):
    """Acceptance gate: the handle cache must pay for itself at n = 256."""

    def timed(runner):
        start = time.perf_counter()
        result = runner()
        return result, time.perf_counter() - start

    # Alternate the legs every round and sum each leg over the rounds: a
    # slow phase of the host then falls on both legs, and a scheduler stall
    # costs one round's share of a leg instead of deciding the ratio.  Each
    # cold query empties the cache, so each warm query follows one refill.
    cold_seconds = warm_seconds = 0.0
    for _ in range(ROUNDS):
        cold_result, seconds = timed(lambda: _cold_query(app))
        cold_seconds += seconds
        warm_result, seconds = timed(lambda: app.query(QUERY))
        warm_seconds += seconds

    assert not cold_result["cache_hit"] and warm_result["cache_hit"]
    assert warm_result["result"] == cold_result["result"], (
        "warm and cold queries must answer identically"
    )

    speedup = cold_seconds / warm_seconds
    perf_record(
        name="service_cache_warm_vs_cold",
        n=N,
        rounds=ROUNDS,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=speedup,
        threshold=REQUIRED_SPEEDUP,
        serial_floor_seconds=SERIAL_FLOOR_S,
    )
    if cold_seconds < SERIAL_FLOOR_S:
        pytest.skip(
            f"cold leg took {cold_seconds * 1e3:.0f} ms, below the "
            f"{SERIAL_FLOOR_S:.0f} s floor: one scheduler stall would decide the ratio"
        )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"warm queries {warm_seconds * 1e3:.2f}ms vs cold construction "
        f"{cold_seconds * 1e3:.2f}ms over {ROUNDS} rounds — only {speedup:.1f}x, "
        f"gate needs {REQUIRED_SPEEDUP:.0f}x"
    )
