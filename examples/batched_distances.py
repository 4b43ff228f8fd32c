#!/usr/bin/env python
"""Batched multi-source temporal distances: the CSR time-arc engine.

Demonstrates the difference between looping a single-source kernel over every
vertex and advancing all sources at once with
:func:`repro.core.journeys.earliest_arrival_matrix` over the cached
:class:`~repro.core.timearc_csr.TimeArcCSR` layout.  Both paths are timed on
the same normalized random clique and cross-checked entry for entry; the
batched sweep also feeds :func:`repro.core.distances.temporal_distance_summary`
so the diameter, radius and average distance come out of a single pass.

Run:  python examples/batched_distances.py
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro import (
    complete_graph,
    earliest_arrival_matrix,
    earliest_arrival_times,
    normalized_urtn,
    temporal_distance_summary,
)


def main() -> None:
    n = 64 if os.environ.get("REPRO_EXAMPLE_QUICK") else 192
    clique = complete_graph(n, directed=True)
    network = normalized_urtn(clique, seed=2014)

    csr = network.timearc_csr  # built once, cached on the network
    print(f"normalized U-RT clique: n={n}, arcs={csr.num_arcs}, "
          f"label groups={csr.num_groups}, CSR size={csr.nbytes / 1024:.0f} KiB")

    start = time.perf_counter()
    batched = earliest_arrival_matrix(network)
    batched_ms = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    looped = np.stack([earliest_arrival_times(network, s) for s in range(n)])
    looped_ms = (time.perf_counter() - start) * 1e3

    assert np.array_equal(batched, looped), "engines disagree!"
    print(f"batched engine: {batched_ms:7.2f} ms for all {n}x{n} distances")
    print(f"looped path:    {looped_ms:7.2f} ms ({n} single-source sweeps)")
    print(f"speedup:        {looped_ms / batched_ms:7.1f}x")

    summary = temporal_distance_summary(network)
    print(f"temporal diameter = {summary.diameter}  (log n = {math.log(n):.1f}, "
          f"direct-edge wait ~ n/2 = {n / 2:.0f})")
    print(f"temporal radius   = {summary.radius}")
    print(f"average distance  = {summary.average_distance:.2f}")


if __name__ == "__main__":
    main()
