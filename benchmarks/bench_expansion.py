"""E3 / F1 bench — the Expansion Process algorithm (Theorem 3, Figure 1)."""

from __future__ import annotations

import pytest

from repro.core.expansion import ExpansionParameters, expansion_process
from repro.core.labeling import normalized_urtn
from repro.experiments.registry import run_experiment
from repro.graphs.generators import complete_graph


def test_bench_experiment_e3(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E3", "quick", seed=103), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("n", [64, 128])
def test_bench_expansion_process(benchmark, n):
    clique = complete_graph(n, directed=True)
    network = normalized_urtn(clique, seed=8)
    params = ExpansionParameters.suggest(n)
    result = benchmark(lambda: expansion_process(network, 0, 1, params))
    assert len(result.forward_layer_sizes) == params.d + 1


def test_bench_expansion_instance_generation(benchmark):
    clique = complete_graph(128, directed=True)
    network = benchmark(lambda: normalized_urtn(clique, seed=9))
    assert network.total_labels == clique.m
