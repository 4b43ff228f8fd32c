"""Memory-budget gates for the out-of-core blocked sweep engine.

The acceptance gate of the blocked sweeps: an ``n = 20 000`` blocked
temporal-diameter computation must complete with peak traced memory under a
RAM budget that the dense path *provably* cannot meet — the dense arrival
matrix alone is ``n² × 8`` bytes = 3.2 GB, several times the budget, before
counting the sweep's working state.  ``tracemalloc`` traces numpy's
allocations (they go through the traced ``PyMem`` domain), so the measured
peak covers the tile states, the accumulator and every transient copy.  A
second, tighter bound pins the fold from settle counts: a tile's state is
its packed ``reached`` bitset, ``n · ⌈tile/64⌉ · 8`` bytes, not an ``int64``
tile 64× that size, so the whole run stays under
:data:`FOLD_PEAK_BYTES`.

A second test keeps the bench honest at oracle scale: at ``n = 512`` the
blocked path must agree with the dense path bit for bit while allocating a
small fraction of its peak.

Both tests persist perf records (``benchmarks/results/blocked_*.json``) with
the exact numbers the assertions were judged on; the CI memory-budget job
uploads them.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro import NetworkAnalysis, grid_graph, uniform_random_labels
from repro.core.blocked_sweeps import blocked_sweep_summary
from repro.graphs.generators import complete_graph
from repro.core.labeling import normalized_urtn

#: The gate instance: a 100×200 grid (n = 20 000, sparse) with one uniform
#: label per edge.  Sparse on purpose — the gate is about *memory*, and a
#: sparse instance keeps the 40-tile sweep inside a CI-friendly runtime.
GATE_ROWS, GATE_COLS = 100, 200
GATE_LIFETIME = 64
#: Peak-RSS budget for the blocked run.  The dense matrix alone needs
#: ``20 000² × 8 = 3.2 GB`` — over 5× this budget — so a dense run cannot fit
#: even before its sweep state; the blocked run must stay under it with room
#: to spare.
MEMORY_BUDGET_BYTES = 512 * 1024 * 1024
#: Peak traced bytes of the gate run when tiles fold from the sweep's settle
#: counts: the CSR layout, one tile's bitset and the per-group gathers.  An
#: ``int64`` tile alone (``20 000 × 256 × 8`` bytes = 41 MB) breaks it.
FOLD_PEAK_BYTES = 32 * 1024 * 1024
#: Tile width for the gate run (the engine default).
GATE_TILE = 256


def _gate_instance():
    graph = grid_graph(GATE_ROWS, GATE_COLS)
    return uniform_random_labels(
        graph, lifetime=GATE_LIFETIME, labels_per_edge=1, seed=42
    )


def test_blocked_diameter_at_n20k_under_memory_budget(perf_record):
    """The CI memory-budget gate (n = 20 000, dense provably over budget)."""
    network = _gate_instance()
    n = network.n
    assert n == GATE_ROWS * GATE_COLS
    dense_matrix_bytes = n * n * 8
    # The dense path is disqualified arithmetically, not by running it: its
    # arrival matrix alone exceeds the budget several times over.
    assert dense_matrix_bytes > 5 * MEMORY_BUDGET_BYTES

    tracemalloc.start()
    start = time.perf_counter()
    result = blocked_sweep_summary(network, tile_size=GATE_TILE)
    elapsed = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    perf_record(
        name="blocked_memory_budget_n20k",
        n=n,
        tile_size=GATE_TILE,
        num_tiles=result.num_tiles,
        lifetime=GATE_LIFETIME,
        peak_traced_bytes=peak_bytes,
        budget_bytes=MEMORY_BUDGET_BYTES,
        fold_peak_bytes=FOLD_PEAK_BYTES,
        tile_bitset_bytes=n * -(-GATE_TILE // 64) * 8,
        dense_matrix_bytes=dense_matrix_bytes,
        elapsed_s=elapsed,
        diameter=float(result.summary.diameter),
        reachable_fraction=result.summary.reachable_fraction,
        passed=bool(peak_bytes < FOLD_PEAK_BYTES),
    )
    assert peak_bytes < MEMORY_BUDGET_BYTES, (
        f"blocked n={n} sweep peaked at {peak_bytes / 2**20:.0f} MiB, "
        f"over the {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget"
    )
    assert peak_bytes < FOLD_PEAK_BYTES, (
        f"blocked n={n} sweep peaked at {peak_bytes / 2**20:.1f} MiB, over the "
        f"{FOLD_PEAK_BYTES / 2**20:.0f} MiB a bitset-only fold needs"
    )
    # Sanity: the run actually streamed (many tiles), and the sparse instance
    # behaves as expected (far from temporally connected at this lifetime).
    assert result.num_tiles == -(-n // GATE_TILE)
    assert 0.0 < result.summary.reachable_fraction < 0.01


def test_blocked_matches_dense_at_oracle_scale(perf_record):
    """n = 512 cross-validation: bit-identical summary, far smaller peak."""
    network = normalized_urtn(complete_graph(512, directed=True), seed=7)

    tracemalloc.start()
    dense = NetworkAnalysis(network).summary
    _, dense_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    streamed = blocked_sweep_summary(network, tile_size=64).summary
    _, blocked_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert streamed == dense
    perf_record(
        name="blocked_vs_dense_n512",
        n=512,
        tile_size=64,
        dense_peak_bytes=dense_peak,
        blocked_peak_bytes=blocked_peak,
        identical=bool(streamed == dense),
    )
    # The dense path materializes the full matrix; the blocked path holds one
    # 64-row tile at a time and should peak well below it.
    assert blocked_peak < dense_peak
