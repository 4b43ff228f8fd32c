"""E5 / F2 bench — star-graph reachability threshold and PoR (Theorem 6, Figure 2)."""

from __future__ import annotations

import math

import pytest

from repro.core.guarantees import reachability_probability, two_split_journey_probability
from repro.experiments.registry import run_experiment
from repro.graphs.generators import star_graph


def test_bench_experiment_e5(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E5", "quick", seed=105), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("r", [1, 8])
def test_bench_star_reachability_probability(benchmark, r):
    star = star_graph(128)
    probability = benchmark.pedantic(
        lambda: reachability_probability(star, r, trials=20, seed=12),
        rounds=1,
        iterations=1,
    )
    assert 0.0 <= probability <= 1.0


def test_bench_two_split_probability(benchmark):
    n = 256
    r = int(math.log(n))
    value = benchmark(lambda: two_split_journey_probability(n, r, trials=5000, seed=13))
    assert 0.0 <= value <= 1.0
