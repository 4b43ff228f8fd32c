"""E4 bench — flooding dissemination and the phone-call baseline (§3.5, §1.1)."""

from __future__ import annotations

import pytest

from repro.core.dissemination import flood_broadcast, push_phone_call_broadcast
from repro.core.labeling import normalized_urtn
from repro.experiments.registry import run_experiment
from repro.graphs.generators import complete_graph


def test_bench_experiment_e4(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E4", "quick", seed=104), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize("n", [128, 256])
def test_bench_flood_broadcast(benchmark, n):
    clique = complete_graph(n, directed=True)
    network = normalized_urtn(clique, seed=10)
    result = benchmark(lambda: flood_broadcast(network, 0))
    assert result.completed


@pytest.mark.parametrize("n", [1024, 4096])
def test_bench_phone_call_push(benchmark, n):
    result = benchmark(lambda: push_phone_call_broadcast(n, seed=11))
    assert result.completed
