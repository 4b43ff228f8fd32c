"""Property-based tests (hypothesis) for the journey machinery.

These check the core invariants of the paper's definitions on randomly
generated temporal networks:

* foremost-journey arrival times equal the brute-force optimum over all
  journeys (on small instances),
* every reconstructed journey is valid (strictly increasing labels, existing
  time edges) and achieves the reported arrival time,
* the vectorised kernel agrees with the scalar reference,
* adding labels never increases temporal distances (monotonicity),
* both sweep directions equal the brute-force oracles of ``tests/oracles.py``
  at any start time or deadline — including deadlines beyond the lifetime,
  where the reverse sweep over the time-reversed layout starts below zero,
* the yes/no reachability predicates equal the brute-force mask's answer,
  and their sweeps stop where ``tests/oracles.py`` says they do.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.journeys import (
    earliest_arrival_matrix,
    earliest_arrival_times,
    foremost_journey,
)
from repro.core.reachability import (
    is_temporally_connected,
    preserves_reachability,
    static_reachability_matrix,
)
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times
from repro.core.temporal_graph import TemporalGraph
from repro.graphs.static_graph import StaticGraph
from repro.types import UNREACHABLE

from oracles import (
    deficient_exit_reference,
    earliest_arrival_times_reference,
    exit_point_reference,
    oracle_arrival_matrix,
    oracle_earliest_arrival_times,
    oracle_latest_departure_times,
)


@st.composite
def temporal_networks(
    draw,
    max_n: int = 6,
    max_labels: int = 2,
    max_lifetime: int = 8,
    allow_directed: bool = False,
):
    """A random small temporal network on a random (un)directed graph.

    The graph is undirected unless ``allow_directed`` lets the draw pick a
    digraph.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    directed = draw(st.booleans()) if allow_directed else False
    possible_edges = [
        (u, v) for u in range(n) for v in range(n) if (u != v if directed else u < v)
    ]
    edge_flags = draw(
        st.lists(st.booleans(), min_size=len(possible_edges), max_size=len(possible_edges))
    )
    edges = [edge for edge, keep in zip(possible_edges, edge_flags) if keep]
    graph = StaticGraph(n, edges, directed=directed)
    labels = [
        sorted(
            set(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=max_lifetime),
                        min_size=0,
                        max_size=max_labels,
                    )
                )
            )
        )
        for _ in range(graph.m)
    ]
    return TemporalGraph(graph, labels, lifetime=max_lifetime)


def _brute_force_arrival(network: TemporalGraph, source: int, target: int) -> int:
    """Exact earliest arrival by exhaustive search over simple vertex orders.

    Small instances only: enumerate all simple paths from source to target and,
    for each, greedily pick the smallest strictly-increasing label sequence.
    """
    if source == target:
        return 0
    n = network.n
    best = UNREACHABLE
    vertices = [v for v in range(n) if v not in (source, target)]
    for length in range(0, len(vertices) + 1):
        for middle in permutations(vertices, length):
            path = (source, *middle, target)
            time = 0
            feasible = True
            for u, v in zip(path, path[1:]):
                try:
                    labels = network.labels_of(u, v)
                except KeyError:
                    feasible = False
                    break
                usable = [label for label in labels if label > time]
                if not usable:
                    feasible = False
                    break
                time = min(usable)
            if feasible:
                best = min(best, time)
    return best


@settings(max_examples=60, deadline=None)
@given(temporal_networks())
def test_vectorised_kernel_matches_reference(network):
    for source in range(network.n):
        fast = earliest_arrival_times(network, source)
        slow = earliest_arrival_times_reference(network, source)
        assert np.array_equal(fast, slow)


@settings(max_examples=40, deadline=None)
@given(temporal_networks(max_n=5))
def test_foremost_arrival_matches_brute_force(network):
    arrival = {
        source: earliest_arrival_times(network, source) for source in range(network.n)
    }
    for source in range(network.n):
        for target in range(network.n):
            assert arrival[source][target] == _brute_force_arrival(network, source, target)


@settings(max_examples=60, deadline=None)
@given(temporal_networks())
def test_reconstructed_journeys_are_valid(network):
    arrival = earliest_arrival_times(network, 0)
    for target in range(network.n):
        if target == 0 or arrival[target] >= UNREACHABLE:
            continue
        journey = foremost_journey(network, 0, target)
        # labels strictly increase (enforced by the Journey constructor) and
        # each hop uses an existing time edge of the instance
        for edge in journey:
            assert network.has_time_edge(edge.u, edge.v, edge.label)
        assert journey.arrival_time == arrival[target]


@settings(max_examples=40, deadline=None)
@given(temporal_networks(), st.integers(min_value=1, max_value=8), st.data())
def test_adding_labels_never_hurts(network, extra_label, data):
    """Temporal distances are monotone non-increasing under label additions."""
    before = earliest_arrival_times(network, 0)
    if network.m == 0:
        return
    edge_index = data.draw(st.integers(min_value=0, max_value=network.m - 1))
    labels = [list(network.labels_of_edge_index(i)) for i in range(network.m)]
    labels[edge_index] = sorted(set(labels[edge_index] + [extra_label]))
    augmented = TemporalGraph(network.graph, labels, lifetime=max(network.lifetime, extra_label))
    after = earliest_arrival_times(augmented, 0)
    assert np.all(after <= before)


@settings(max_examples=40, deadline=None)
@given(temporal_networks())
def test_arrival_times_bounded_by_lifetime_or_unreachable(network):
    arrival = earliest_arrival_times(network, 0)
    assert arrival[0] == 0
    finite = arrival[arrival < UNREACHABLE]
    assert np.all(finite <= network.lifetime)


@settings(max_examples=80, deadline=None)
@given(temporal_networks(allow_directed=True), st.data())
def test_both_directions_match_oracles(network, data):
    """Forward from ``start_time = t`` and reverse to ``deadline = t``.

    ``t`` ranges up to ``lifetime + 2``: a deadline beyond the lifetime is
    the one input where the mirrored start of the reverse sweep is negative.
    """
    time = data.draw(st.integers(min_value=0, max_value=network.lifetime + 2))
    arrivals = [
        oracle_earliest_arrival_times(network, v, start_time=time) for v in range(network.n)
    ]
    departures = [
        oracle_latest_departure_times(network, v, deadline=time) for v in range(network.n)
    ]
    arrival_rows = earliest_arrival_matrix(network, start_time=time)
    departure_rows = latest_departure_matrix(network, deadline=time)
    for vertex in range(network.n):
        np.testing.assert_array_equal(arrival_rows[vertex], arrivals[vertex])
        np.testing.assert_array_equal(
            earliest_arrival_times(network, vertex, start_time=time),
            arrivals[vertex],
        )
        np.testing.assert_array_equal(departure_rows[vertex], departures[vertex])
        np.testing.assert_array_equal(
            latest_departure_times(network, vertex, deadline=time),
            departures[vertex],
        )


@settings(max_examples=80, deadline=None)
@given(temporal_networks(allow_directed=True))
def test_decisions_match_oracles(network):
    """``preserves_reachability`` and ``is_temporally_connected`` answer as
    the brute-force mask does, and stop at the reference's exit point."""
    rows = oracle_arrival_matrix(network)
    reach = rows < UNREACHABLE
    closure = static_reachability_matrix(network.graph)
    for decide, required in (
        (preserves_reachability, closure),
        (is_temporally_connected, np.ones_like(reach)),
    ):
        with telemetry.session() as recorder:
            assert decide(network) == bool(np.array_equal(reach, required))
        if network.num_time_arcs == 0:
            continue
        counters = recorder.counters
        stop = deficient_exit_reference(network, reach, required)
        if stop is None:
            expected = (*exit_point_reference(network, 0, rows), 0)
        else:
            expected = (stop, 0, 1)
        assert expected == (
            counters["kernel.forward.groups_scanned"],
            counters.get("kernel.forward.saturation_exits", 0),
            counters.get("kernel.forward.deficient_exits", 0),
        )
