"""Cross-check the sweep kernels against brute-force journey enumeration.

The oracles in ``tests/oracles.py`` share no code with the production
kernels: they enumerate journeys straight from the definition by DFS over the
raw time-arc list.  On every ``n <= 8`` instance in the pool, the forward
kernel, the reverse kernels (single-target, batched and pure-Python
reference) and the centrality family must all agree with them exactly.

``TestFreeFunctionsAgainstOracle`` pins the core free functions (one sweep,
one ``repro.core`` reduction, no handle) over the pool plus a single vertex
and a network whose edges carry no labels.

``TestEveryBackendAgainstOracle`` additionally pins **every registered
kernel backend** (:mod:`repro.core.kernels`) bit-identical to the oracles on
the same pool; a backend that cannot run here (numba not installed) skips
cleanly with the registry's reason string.  ``TestReachOnlyAgainstOracle``
does the same for the reach-only sweep, whose answer is the kernel's packed
``reached`` bitset.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro import (
    NEVER,
    UNREACHABLE,
    NetworkAnalysis,
    StaticGraph,
    TemporalGraph,
    complete_graph,
    earliest_arrival_matrix,
    earliest_arrival_times,
    erdos_renyi_graph,
    normalized_urtn,
    path_graph,
    star_graph,
    uniform_random_labels,
)
from repro.core import centrality, distances, kernels, reachability
from repro.core.journeys import _sweep
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times

from oracles import (
    latest_departure_times_reference,
    oracle_arrival_matrix,
    oracle_centrality,
    oracle_departure_matrix,
    oracle_distance_summary,
    oracle_earliest_arrival_times,
    oracle_latest_departure_times,
    oracle_reverse_distance_summary,
)


def _instance_pool():
    """Small, structurally diverse instances: id → network."""
    pool = {}
    for seed in range(5):
        pool[f"clique-directed-{seed}"] = normalized_urtn(
            complete_graph(6, directed=True), seed=seed
        )
        pool[f"clique-undirected-{seed}"] = normalized_urtn(
            complete_graph(5), seed=seed
        )
        pool[f"er-r2-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(8, 0.4, directed=True, seed=seed),
            lifetime=12,
            labels_per_edge=2,
            seed=seed + 100,
        )
        pool[f"star-{seed}"] = normalized_urtn(star_graph(7), seed=seed)
        pool[f"path-r2-{seed}"] = uniform_random_labels(
            path_graph(6), lifetime=9, labels_per_edge=2, seed=seed + 200
        )
    return pool


_POOL = _instance_pool()

#: Kept out of ``_POOL`` so the per-backend legs do not grow.
_DEGENERATE = {
    "single-vertex": TemporalGraph(StaticGraph(1, []), []),
    "unlabelled-path": TemporalGraph(path_graph(4), {}),
}
_FREE_POOL = {**_POOL, **_DEGENERATE}


@pytest.fixture(params=sorted(_POOL), ids=sorted(_POOL))
def network(request):
    return _POOL[request.param]


@pytest.fixture(params=sorted(_FREE_POOL), ids=sorted(_FREE_POOL))
def any_network(request):
    return _FREE_POOL[request.param]


def backend_params():
    """One pytest param per registered kernel backend; unusable ones skip."""
    params = []
    for name in kernels.backend_names():
        reason = kernels.backend_unavailable_reason(name)
        marks = (
            [pytest.mark.skip(reason=f"backend {name!r}: {reason}")]
            if reason is not None
            else []
        )
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(params=backend_params())
def kernel_backend(request):
    return request.param


class TestForwardKernelAgainstOracle:
    def test_single_source(self, network):
        for source in range(network.n):
            np.testing.assert_array_equal(
                earliest_arrival_times(network, source),
                oracle_earliest_arrival_times(network, source),
            )

    def test_matrix(self, network):
        np.testing.assert_array_equal(
            earliest_arrival_matrix(network), oracle_arrival_matrix(network)
        )

    def test_nonzero_start_time(self, network):
        start = max(1, network.lifetime // 3)
        for source in range(network.n):
            np.testing.assert_array_equal(
                earliest_arrival_times(network, source, start_time=start),
                oracle_earliest_arrival_times(network, source, start_time=start),
            )


class TestReverseKernelAgainstOracle:
    def test_single_target(self, network):
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times(network, target),
                oracle_latest_departure_times(network, target),
            )

    def test_matrix(self, network):
        np.testing.assert_array_equal(
            latest_departure_matrix(network), oracle_departure_matrix(network)
        )

    def test_reference_implementation(self, network):
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times_reference(network, target),
                oracle_latest_departure_times(network, target),
            )

    def test_restricted_deadline(self, network):
        deadline = max(1, network.lifetime // 2)
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times(network, target, deadline=deadline),
                oracle_latest_departure_times(network, target, deadline=deadline),
            )


class TestEveryBackendAgainstOracle:
    """Every registered backend must be bit-identical to the oracles.

    These run the same instances as the reference-kernel classes above, but
    force each sweep through one named backend — the cross-backend half of
    the oracle harness.  (Large-n cross-backend parity lives in
    ``tests/test_kernel_backends.py``; this pool is exhaustive per source and
    target.)
    """

    def test_forward(self, network, kernel_backend):
        np.testing.assert_array_equal(
            earliest_arrival_matrix(network, backend=kernel_backend),
            oracle_arrival_matrix(network),
        )
        start = max(1, network.lifetime // 3)
        for source in range(network.n):
            np.testing.assert_array_equal(
                earliest_arrival_times(
                    network, source, start_time=start, backend=kernel_backend
                ),
                oracle_earliest_arrival_times(network, source, start_time=start),
            )

    def test_reverse(self, network, kernel_backend):
        np.testing.assert_array_equal(
            latest_departure_matrix(network, backend=kernel_backend),
            oracle_departure_matrix(network),
        )
        deadline = max(1, network.lifetime // 2)
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times(
                    network, target, deadline=deadline, backend=kernel_backend
                ),
                oracle_latest_departure_times(network, target, deadline=deadline),
            )


class TestReachOnlyAgainstOracle:
    """Reach-only sweeps on every backend: no arrivals, just the bitset."""

    def test_both_directions(self, network, kernel_backend):
        expected = oracle_arrival_matrix(network) < UNREACHABLE
        np.testing.assert_array_equal(
            reachability.reachability_matrix(network, backend=kernel_backend),
            expected,
        )
        handle = NetworkAnalysis(network, kernel_backend=kernel_backend)
        np.testing.assert_array_equal(handle.reachability(), expected)
        # The reverse twin: bit s of row v is set when v reaches target s.
        reached = _sweep(
            network, None, 0, reverse=True, backend=kernel_backend, arrivals=False
        ).reached
        bits = np.unpackbits(reached.view(np.uint8), axis=1, count=network.n)
        np.testing.assert_array_equal(
            bits.view(np.bool_).T, oracle_departure_matrix(network) > NEVER
        )


class TestStreamedSummaryAgainstOracle:
    """The blocked (out-of-core) accumulator path against the oracle pool.

    The other classes pin the full-matrix kernels; this one pins the tiled
    *reduction* — :func:`repro.core.blocked_sweeps.blocked_sweep_summary`
    streams tile partials into exact integer accumulators, and every field
    (including the correctly-rounded mean) must equal the oracle's pure-Python
    reduction exactly.  Tile width 3 forces partial tiles on every pool
    instance; ``n`` collapses to a single tile.
    """

    @pytest.mark.parametrize("tile_size", [3, None], ids=["tile3", "tileN"])
    def test_forward(self, network, tile_size):
        from repro.core.blocked_sweeps import blocked_sweep_summary

        expected = oracle_distance_summary(network)
        result = blocked_sweep_summary(
            network,
            tile_size=network.n if tile_size is None else tile_size,
        )
        assert result.summary.diameter == expected["diameter"]
        assert result.summary.radius == expected["radius"]
        _assert_same_float(
            result.summary.average_distance, expected["average_distance"]
        )
        assert result.summary.reachable_fraction == expected["reachable_fraction"]
        np.testing.assert_array_equal(
            result.reach_counts, expected["reach_counts"]
        )

    @pytest.mark.parametrize("tile_size", [3, None], ids=["tile3", "tileN"])
    def test_reverse(self, network, tile_size):
        from repro.core.blocked_sweeps import blocked_sweep_summary

        expected = oracle_reverse_distance_summary(network)
        result = blocked_sweep_summary(
            network,
            tile_size=network.n if tile_size is None else tile_size,
            direction="reverse",
        )
        assert result.summary.diameter == expected["diameter"]
        assert result.summary.radius == expected["radius"]
        _assert_same_float(
            result.summary.average_distance, expected["average_distance"]
        )
        assert result.summary.reachable_fraction == expected["reachable_fraction"]
        np.testing.assert_array_equal(
            result.reach_counts, expected["reach_counts"]
        )

    def test_every_backend(self, network, kernel_backend):
        from repro.core.blocked_sweeps import blocked_sweep_summary

        expected = oracle_distance_summary(network)
        result = blocked_sweep_summary(network, tile_size=2, backend=kernel_backend)
        assert result.summary.diameter == expected["diameter"]
        _assert_same_float(
            result.summary.average_distance, expected["average_distance"]
        )
        assert result.summary.reachable_fraction == expected["reachable_fraction"]

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_spill_changes_nothing(self, network, direction, tmp_path):
        """A spilling sweep folds the same tiles and spills the dense matrix."""
        from repro.core.blocked_sweeps import blocked_sweep_summary

        spilled = blocked_sweep_summary(
            network, tile_size=3, direction=direction, spill_path=tmp_path / "rows.npy"
        )
        plain = blocked_sweep_summary(network, tile_size=3, direction=direction)
        assert plain.spill is None
        assert repr(plain.summary) == repr(spilled.summary)  # nan == nan
        assert plain.moments == spilled.moments
        np.testing.assert_array_equal(plain.eccentricities, spilled.eccentricities)
        np.testing.assert_array_equal(plain.reach_counts, spilled.reach_counts)
        if direction == "forward":
            dense = oracle_arrival_matrix(network)
        else:
            departures = oracle_departure_matrix(network)
            dense = np.where(
                departures == NEVER, UNREACHABLE, network.lifetime + 1 - departures
            )
        np.testing.assert_array_equal(np.asarray(spilled.spill), dense)


def _assert_same_float(actual: float, expected: float) -> None:
    """Exact float equality, with ``nan == nan`` (the unreachable sentinel)."""
    if np.isnan(expected):
        assert np.isnan(actual)
    else:
        assert actual == expected


class TestCentralityAgainstOracle:
    def test_whole_family(self, network):
        analysis = NetworkAnalysis(network)
        expected = oracle_centrality(network)
        np.testing.assert_allclose(analysis.closeness(), expected["closeness"])
        np.testing.assert_allclose(
            analysis.harmonic_closeness(), expected["harmonic"]
        )
        np.testing.assert_array_equal(
            analysis.influence_counts(), expected["influence"]
        )
        np.testing.assert_array_equal(analysis.reach_counts(), expected["reach"])


class TestFreeFunctionsAgainstOracle:
    def test_distance_summary_and_eccentricities(self, any_network):
        expected = oracle_distance_summary(any_network)
        summary = distances.temporal_distance_summary(any_network)
        assert summary.diameter == expected["diameter"]
        assert summary.radius == expected["radius"]
        _assert_same_float(summary.average_distance, expected["average_distance"])
        assert summary.reachable_fraction == expected["reachable_fraction"]
        rows = oracle_arrival_matrix(any_network).tolist()
        np.testing.assert_array_equal(
            distances.temporal_eccentricities(any_network), [max(row) for row in rows]
        )

    def test_reachability(self, any_network):
        expected = oracle_arrival_matrix(any_network) < UNREACHABLE
        actual = reachability.reachability_matrix(any_network)
        np.testing.assert_array_equal(actual, expected)
        assert reachability.is_temporally_connected(any_network) == expected.all()
        assert reachability.preserves_reachability(any_network) == (
            NetworkAnalysis(any_network).preserves_reachability()
        )

    def test_centrality(self, any_network):
        expected = oracle_centrality(any_network)
        for name, measure in [
            ("closeness", centrality.temporal_closeness),
            ("harmonic", centrality.temporal_harmonic_closeness),
            ("influence", centrality.temporal_influence_counts),
            ("reach", centrality.temporal_reach_counts),
        ]:
            np.testing.assert_allclose(measure(any_network), expected[name], rtol=1e-12)

    def test_degenerate_summaries(self):
        single = NetworkAnalysis(_DEGENERATE["single-vertex"]).summary
        assert astuple(single) == (0, 0, 0.0, 1.0)
        empty = distances.temporal_distance_summary(_DEGENERATE["unlabelled-path"])
        assert (empty.diameter, empty.radius) == (UNREACHABLE, UNREACHABLE)
        assert np.isnan(empty.average_distance) and empty.reachable_fraction == 0.0
