"""Algorithm 1 against the dictionary-and-loops reference of tests/oracles.py.

The package reads labels from an ``n × n`` smallest-label matrix and grows
both frontiers with one vectorised expansion step; the reference keeps a
``(tail, head) → label`` dict and scans every frontier vertex and every
head in Python.  Both choose each witness by the frontier set's iteration
order, so every :class:`ExpansionResult` field must agree: success, the
journey hop by hop, the arrival time, every layer and its size, the
parameters and the time bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import expansion_process_reference
from repro.core.expansion import ExpansionParameters, expansion_process
from repro.core.temporal_graph import TemporalGraph
from repro.exceptions import InvalidVertexError
from repro.graphs.generators import complete_graph

SEEDS = range(320)


def _instance(seed: int):
    """A random clique, labels, endpoints and parameters, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    directed = seed % 2 == 0
    n = int(rng.integers(4, 48))
    graph = complete_graph(n, directed=directed)
    # One or two draws per edge: two equal draws collapse to one label.
    draws = int(rng.integers(1, 3))
    lifetime = int(rng.choice([n, 2 * n]))
    labels = rng.integers(1, lifetime + 1, size=(graph.m, draws))
    network = TemporalGraph.from_label_matrix(graph, labels, lifetime=lifetime)
    source, target = (int(v) for v in rng.choice(n, size=2, replace=False))
    parameters = None
    if seed % 4 >= 2:
        parameters = ExpansionParameters(
            c1=float(rng.uniform(0.3, 3.0)),
            c2=float(rng.uniform(0.5, 8.0)),
            d=int(rng.integers(1, 4)),
        )
    return network, source, target, parameters


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_the_reference(seed):
    network, source, target, parameters = _instance(seed)
    result = expansion_process(network, source, target, parameters)
    expected = expansion_process_reference(network, source, target, parameters)
    assert result == expected
    if result.success:
        # Python ints throughout, as a digest or a JSON record reads them.
        hops = [(hop.u, hop.v, hop.label) for hop in result.journey]
        assert all(type(value) is int for hop in hops for value in hop)
        assert type(result.arrival_time) is int
    for layers in (result.forward_layers, result.backward_layers):
        assert all(type(v) is int for layer in layers for v in layer)


def test_both_outcomes_are_pinned():
    outcomes = [
        expansion_process(*_instance(seed)).success for seed in SEEDS[::8]
    ]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("source, target", [(-1, 2), (0, 9), (12, 3)])
def test_endpoints_must_be_vertices(source, target):
    network = TemporalGraph.from_label_matrix(
        complete_graph(9, directed=True), np.arange(1, 73) % 9 + 1
    )
    with pytest.raises(InvalidVertexError):
        expansion_process(network, source, target)
