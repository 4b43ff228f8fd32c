"""E6 / F3 bench — general-graph reachability guarantees (Theorems 7–8, Figure 3)."""

from __future__ import annotations

import pytest

from repro.core.labeling import box_assignment
from repro.core.reachability import preserves_reachability
from repro.experiments.registry import run_experiment
from repro.graphs.generators import grid_graph, path_graph


def test_bench_experiment_e6(benchmark, attach_report):
    report = benchmark.pedantic(
        lambda: run_experiment("E6", "quick", seed=106), rounds=1, iterations=1
    )
    attach_report(benchmark, report)
    assert report.consistent


@pytest.mark.parametrize(
    "maker", [lambda: path_graph(32), lambda: grid_graph(6, 6)], ids=["path_32", "grid_6x6"]
)
def test_bench_box_assignment_and_check(benchmark, maker):
    graph = maker()

    def build_and_verify() -> bool:
        network = box_assignment(graph, mode="random", seed=14)
        return preserves_reachability(network)

    assert benchmark(build_and_verify)
