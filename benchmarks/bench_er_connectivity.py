"""E7 bench — Erdős–Rényi connectivity threshold substrate."""

from __future__ import annotations

import pytest

from repro.erdosrenyi.gnp import gnp_connectivity, sample_gnp_edges
from repro.erdosrenyi.thresholds import critical_probability
from repro.experiments.registry import run_experiment


def test_bench_experiment_e7(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E7", "quick", seed=107), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("n", [512, 2048])
def test_bench_gnp_sample_and_connectivity(benchmark, n):
    p = 1.5 * critical_probability(n)

    def sample_and_check() -> tuple[bool, float]:
        edges_u, edges_v = sample_gnp_edges(n, p, seed=15)
        return gnp_connectivity(n, edges_u, edges_v)

    benchmark(sample_and_check)
