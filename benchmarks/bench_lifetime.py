"""E2 bench — temporal diameter vs. lifetime (Theorem 5)."""

from __future__ import annotations

import pytest

from repro.analysis_api import NetworkAnalysis
from repro.core.labeling import uniform_random_labels
from repro.core.lifetime import prefix_connectivity_time
from repro.experiments.registry import run_experiment
from repro.graphs.generators import complete_graph


def test_bench_experiment_e2(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E2", "quick", seed=102), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("multiplier", [1, 8])
def test_bench_long_lifetime_diameter(benchmark, multiplier):
    n = 64
    clique = complete_graph(n, directed=True)
    network = uniform_random_labels(clique, lifetime=multiplier * n, seed=3)
    result = benchmark(lambda: NetworkAnalysis(network).diameter)
    assert result <= multiplier * n


def test_bench_prefix_connectivity_certificate(benchmark):
    n = 96
    clique = complete_graph(n, directed=True)
    network = uniform_random_labels(clique, lifetime=8 * n, seed=4)
    value = benchmark(lambda: prefix_connectivity_time(network))
    assert value >= 1
