"""E8 / E9 benches — the extension experiments (F-CASE and multi-label cliques)."""

from __future__ import annotations

import pytest

from repro.analysis_api import NetworkAnalysis
from repro.core.labeling import uniform_random_labels
from repro.experiments.registry import run_experiment
from repro.graphs.generators import complete_graph
from repro.randomness.distributions import GeometricLabelDistribution


def test_bench_experiment_e8(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E8", "quick", seed=108), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


def test_bench_experiment_e9(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E9", "quick", seed=109), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("r", [1, 4])
def test_bench_multilabel_diameter(benchmark, r):
    clique = complete_graph(96, directed=True)
    network = uniform_random_labels(clique, labels_per_edge=r, lifetime=96, seed=30)
    result = benchmark(lambda: NetworkAnalysis(network).diameter)
    assert result <= 96


def test_bench_fcase_instance_generation(benchmark):
    clique = complete_graph(96, directed=True)
    distribution = GeometricLabelDistribution(96, q=0.05)
    network = benchmark(
        lambda: uniform_random_labels(clique, distribution=distribution, seed=31)
    )
    assert network.total_labels == clique.m
