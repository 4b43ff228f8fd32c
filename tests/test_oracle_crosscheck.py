"""Cross-check the sweep kernels against brute-force journey enumeration.

The oracles in ``tests/oracles.py`` share no code with the production
kernels: they enumerate journeys straight from the definition by DFS over the
raw time-arc list.  On every ``n <= 8`` instance in the pool, the forward
kernel, the reverse kernels (single-target, batched and pure-Python
reference) and the centrality family must all agree with them exactly.

``TestWholeInstanceAgainstOracle`` pins a fresh handle's whole-instance
views and the core reachability predicates over the pool plus a single
vertex and a network whose edges carry no labels.  ``TestReachOnlyAgainstOracle``
pins the reach-only sweep, whose answer is the kernel's packed ``reached``
bitset.  ``TestExitPointsAgainstOracle`` pins how many label groups each
all-pairs sweep scans, ``TestDecisionsAgainstOracle`` the yes/no
reachability predicates and where their sweeps stop, and
``TestHandleQueriesAgainstOracle`` the handle's narrow row and point
queries.
"""

from __future__ import annotations

import pickle
from dataclasses import astuple

import numpy as np
import pytest

from repro import (
    NEVER,
    UNREACHABLE,
    NetworkAnalysis,
    telemetry,
    StaticGraph,
    TemporalGraph,
    compute_events,
    complete_graph,
    earliest_arrival_matrix,
    earliest_arrival_times,
    erdos_renyi_graph,
    normalized_urtn,
    path_graph,
    star_graph,
    uniform_random_labels,
)
from repro.core import reachability
from repro.core.journeys import _sweep
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times

from oracles import (
    assert_layout_matches,
    deficient_exit_reference,
    exit_point_reference,
    latest_departure_times_reference,
    oracle_arrival_matrix,
    oracle_centrality,
    oracle_departure_matrix,
    oracle_distance_summary,
    oracle_earliest_arrival_times,
    oracle_latest_departure_times,
    oracle_reverse_distance_summary,
    timearc_csr_reference,
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

#: Kept out of ``_POOL``: only the whole-instance pins and the layouts take them.
_DEGENERATE = {
    "single-vertex": TemporalGraph(StaticGraph(1, []), []),
    "unlabelled-path": TemporalGraph(path_graph(4), {}),
}
_ANY_POOL = {**_POOL, **_DEGENERATE}


@pytest.fixture(params=sorted(_POOL), ids=sorted(_POOL))
def network(request):
    return _POOL[request.param]


@pytest.fixture(params=sorted(_ANY_POOL), ids=sorted(_ANY_POOL))
def any_network(request):
    return _ANY_POOL[request.param]


def _every_time(network):
    """Start times and deadlines ``0 .. lifetime + 2``.  A deadline past the
    lifetime starts the reverse sweep below zero."""
    return range(network.lifetime + 3)


def _oracle_rows(network, direction, time):
    """Every source's arrivals from start time ``time`` (forward), or every
    target's departures to deadline ``time`` (reverse)."""
    if direction == "forward":
        rows = [
            oracle_earliest_arrival_times(network, v, start_time=time)
            for v in range(network.n)
        ]
    else:
        rows = [
            oracle_latest_departure_times(network, v, deadline=time)
            for v in range(network.n)
        ]
    return np.stack(rows)


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

    def test_matrix_from_every_start_time(self, network):
        for start in _every_time(network):
            np.testing.assert_array_equal(
                earliest_arrival_matrix(network, start_time=start),
                _oracle_rows(network, "forward", start),
                err_msg=f"start_time={start}",
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

    def test_matrix_to_every_deadline(self, network):
        for deadline in _every_time(network):
            np.testing.assert_array_equal(
                latest_departure_matrix(network, deadline=deadline),
                _oracle_rows(network, "reverse", deadline),
                err_msg=f"deadline={deadline}",
            )


class TestExitPointsAgainstOracle:
    """Where an all-pairs sweep stops, against the oracle's final rows.

    From every start time or deadline, the full-width sweep's
    ``groups_scanned`` and ``saturation_exits`` must equal what
    :func:`oracles.exit_point_reference` reads off the brute-force rows.
    """

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_every_time(self, network, direction):
        for time in _every_time(network):
            with telemetry.session() as recorder:
                if direction == "forward":
                    earliest_arrival_matrix(network, start_time=time)
                else:
                    latest_departure_matrix(network, deadline=time)
            counters = recorder.counters
            exits = (
                counters[f"kernel.{direction}.groups_scanned"],
                counters.get(f"kernel.{direction}.saturation_exits", 0),
            )
            expected = exit_point_reference(
                network,
                time,
                _oracle_rows(network, direction, time),
                reverse=direction == "reverse",
            )
            assert exits == expected, time


#: Networks for the single-target sweeps beyond :data:`_ANY_POOL`: no edges,
#: no vertices, and three labels per edge on a directed clique.
_SINGLE_TARGET_POOL = {
    **_ANY_POOL,
    "no-edges": TemporalGraph(StaticGraph(3, []), []),
    "no-vertices": TemporalGraph(StaticGraph(0, []), []),
    "clique-r3": uniform_random_labels(
        complete_graph(5, directed=True), lifetime=7, labels_per_edge=3, seed=3
    ),
}


class TestSingleTargetSweepsAgainstOracle:
    """A one-target reverse sweep walks the forward layout from its last group
    down, mirroring each label and reading each arc head → tail.

    On a fresh copy of every network, for every target and every deadline in
    ``[0, a + 2]``, the departures and the reverse reachable set must equal
    the brute-force oracle's.  With two or more vertices the sweep must scan
    the groups and exit where :func:`oracles.exit_point_reference` reads off
    the oracle's row, as the time-reversed layout's sweep would.  None of
    this may build the reverse layout.
    """

    @pytest.mark.parametrize(
        "network_id", sorted(_SINGLE_TARGET_POOL), ids=sorted(_SINGLE_TARGET_POOL)
    )
    def test_every_target_and_deadline(self, network_id):
        network = pickle.loads(pickle.dumps(_SINGLE_TARGET_POOL[network_id]))
        for deadline in _every_time(network):
            for target in range(network.n):
                expected = oracle_latest_departure_times(
                    network, target, deadline=deadline
                )
                with telemetry.session() as recorder:
                    depart = latest_departure_times(network, target, deadline=deadline)
                np.testing.assert_array_equal(
                    depart, expected, err_msg=f"target={target} deadline={deadline}"
                )
                counters = recorder.counters
                assert counters["kernel.reverse.targets"] == 1
                if network.n > 1:
                    exits = (
                        counters.get("kernel.reverse.groups_scanned", 0),
                        counters.get("kernel.reverse.saturation_exits", 0),
                    )
                    assert exits == exit_point_reference(
                        network, deadline, expected[None], reverse=True
                    ), (target, deadline)
        handle = NetworkAnalysis(network)
        for target in range(network.n):
            np.testing.assert_array_equal(
                handle.reverse_reachable_set(target),
                np.flatnonzero(oracle_latest_departure_times(network, target) > NEVER),
            )
        assert network._reverse_timearc_csr is None
        # A wide reverse sweep still reads (and builds) the reverse layout.
        assert latest_departure_matrix(network).shape == (network.n, network.n)
        built = network._reverse_timearc_csr is not None
        assert built == (network.num_time_arcs > 0)


#: The yes/no predicates as run in :class:`TestDecisionsAgainstOracle`: the
#: core functions, and each on a fresh handle.
_DECISIONS = {
    "preserves": reachability.preserves_reachability,
    "preserves-handle": lambda net: NetworkAnalysis(net).preserves_reachability(),
    "connected": reachability.is_temporally_connected,
    "connected-handle": lambda net: NetworkAnalysis(net).is_temporally_connected,
}


def _required(network, decision):
    """The mask a "yes" of ``decision`` needs: the static closure, or every pair."""
    if decision.startswith("connected"):
        return np.ones((network.n, network.n), dtype=bool)
    return reachability.static_reachability_matrix(network.graph)


class TestDecisionsAgainstOracle:
    """The yes/no reachability predicates, and where their sweeps stop.

    Each answer must equal the brute-force mask's.  The sweep stops at the
    first vertex whose row is final and short of the required one, so its
    ``groups_scanned`` and exit kind must equal
    :func:`oracles.deficient_exit_reference`; with no such vertex they are
    the reach-only sweep's (:func:`oracles.exit_point_reference`).
    """

    @pytest.mark.parametrize("decision", sorted(_DECISIONS))
    def test_answer_and_exit_point(self, network, decision):
        rows = oracle_arrival_matrix(network)
        reach = rows < UNREACHABLE
        required = _required(network, decision)
        with telemetry.session() as recorder:
            answer = _DECISIONS[decision](network)
        assert answer == bool(np.array_equal(reach, required))
        counters = recorder.counters
        assert counters["kernel.forward.sweeps"] == 1
        exits = (
            counters["kernel.forward.groups_scanned"],
            counters.get("kernel.forward.saturation_exits", 0),
            counters.get("kernel.forward.deficient_exits", 0),
        )
        stop = deficient_exit_reference(network, reach, required)
        if stop is None:
            expected = (*exit_point_reference(network, 0, rows), 0)
        else:
            expected = (stop, 0, 1)
        assert exits == expected

    def test_pool_exercises_every_exit(self):
        """Both answers occur, and some "no" stops before its last group."""
        answers, early = set(), 0
        for network in _POOL.values():
            reach = oracle_arrival_matrix(network) < UNREACHABLE
            required = _required(network, "preserves")
            answers.add(bool(np.array_equal(reach, required)))
            stop = deficient_exit_reference(network, reach, required)
            early += stop is not None and stop < np.unique(network.time_arc_labels).size
        assert answers == {True, False}
        assert early > 0

    def test_handle_caches_no_partial_bitset(self, network):
        handle = NetworkAnalysis(network)
        with compute_events() as events:
            answer = handle.preserves_reachability()
        assert events.counts == {"static_reachability": 1}
        expected = oracle_arrival_matrix(network) < UNREACHABLE
        np.testing.assert_array_equal(handle.reachability(), expected)
        assert answer == bool(np.array_equal(expected, _required(network, "preserves")))

    @pytest.mark.parametrize("artifact", ["reachability", "arrival_matrix"])
    def test_handle_compares_a_cached_mask(self, network, artifact):
        handle = NetworkAnalysis(network)
        getattr(handle, artifact)()
        with telemetry.session() as recorder:
            answer = handle.preserves_reachability()
        assert "kernel.forward.sweeps" not in recorder.counters
        assert answer == reachability.preserves_reachability(network)

    def test_handle_decides_connectivity_without_a_matrix(self, network):
        handle = NetworkAnalysis(network)
        with compute_events() as events:
            answer = handle.is_temporally_connected
            again = handle.is_temporally_connected
        assert events.counts == {"temporally_connected": 1}
        assert events.hits == {"temporally_connected": 1}
        expected = oracle_arrival_matrix(network) < UNREACHABLE
        assert answer == again == bool(expected.all())

    @pytest.mark.parametrize("artifact", ["reachability", "arrival_matrix", "summary"])
    def test_handle_reads_connectivity_from_a_cached_artifact(self, network, artifact):
        handle = NetworkAnalysis(network)
        member = getattr(handle, artifact)
        if callable(member):
            member()
        with telemetry.session() as recorder:
            with compute_events() as events:
                answer = handle.is_temporally_connected
        assert "kernel.forward.sweeps" not in recorder.counters
        assert events.counts == {}
        assert answer == reachability.is_temporally_connected(network)


class TestReachOnlyAgainstOracle:
    """Reach-only sweeps: no arrivals, just the bitset."""

    def test_both_directions(self, network):
        expected = oracle_arrival_matrix(network) < UNREACHABLE
        np.testing.assert_array_equal(
            reachability.reachability_matrix(network), expected
        )
        handle = NetworkAnalysis(network)
        np.testing.assert_array_equal(handle.reachability(), expected)
        # The reverse twin: bit s of row v is set when v reaches target s.
        reached = _sweep(network, None, 0, reverse=True, arrivals=False).reached
        bits = np.unpackbits(reached.view(np.uint8), axis=1, count=network.n)
        np.testing.assert_array_equal(
            bits.view(np.bool_).T, oracle_departure_matrix(network) > NEVER
        )

    def test_reachable_sets(self, network):
        arrivals = oracle_arrival_matrix(network)
        departures = oracle_departure_matrix(network)
        handle = NetworkAnalysis(network)
        for vertex in range(network.n):
            np.testing.assert_array_equal(
                np.flatnonzero(handle.distances_from([vertex])[0] < UNREACHABLE),
                np.flatnonzero(arrivals[vertex] < UNREACHABLE),
            )
            np.testing.assert_array_equal(
                handle.reverse_reachable_set(vertex),
                np.flatnonzero(departures[vertex] > NEVER),
            )


class TestHandleQueriesAgainstOracle:
    """Row and point queries on a fresh :class:`NetworkAnalysis`.

    No matrix is cached yet, so each query runs and memoizes its own narrow
    sweep; a target-side query must never run a forward sweep.
    """

    def test_source_side(self, network):
        expected = oracle_arrival_matrix(network)
        handle = NetworkAnalysis(network)
        order = np.arange(network.n)[::-1]
        np.testing.assert_array_equal(handle.distances_from(order), expected[order])
        for source in range(network.n):
            for target in range(network.n):
                assert handle.distance(source, target) == expected[source, target]

    def test_target_side(self, network):
        departures = oracle_departure_matrix(network)
        horizon = network.lifetime + 1
        handle = NetworkAnalysis(network)
        with telemetry.session() as recorder:
            for target in range(network.n):
                row = departures[target]
                np.testing.assert_array_equal(handle.departures_to([target])[0], row)
                np.testing.assert_array_equal(
                    handle.distances_to([target])[0],
                    np.where(row == NEVER, UNREACHABLE, horizon - row),
                )
                np.testing.assert_array_equal(
                    handle.reverse_reachable_set(target), np.flatnonzero(row > NEVER)
                )
                for source in range(network.n):
                    assert handle.latest_departure(source, target) == row[source]
        assert "kernel.forward.sweeps" not in recorder.counters
        assert recorder.counters["kernel.reverse.sweeps"] == network.n


class TestStreamedSummaryAgainstOracle:
    """The blocked (out-of-core) accumulator path against the oracle pool.

    The other classes pin the full-matrix kernels; this one pins the tiled
    *reduction* — :func:`repro.core.blocked_sweeps.blocked_sweep_summary`
    streams tile partials into exact integer accumulators, and every field
    (including the correctly-rounded mean) must equal the oracle's pure-Python
    reduction exactly.  Tile widths 2 and 3 force partial tiles on every
    pool instance; ``n`` collapses to a single tile.
    """

    @pytest.mark.parametrize("tile_size", [2, 3, None], ids=["tile2", "tile3", "tileN"])
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

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_streamed_entry_points(self, network, direction):
        """The handle's memoized summary of the blocked sweep."""
        expected = (
            oracle_distance_summary(network)
            if direction == "forward"
            else oracle_reverse_distance_summary(network)
        )
        summary = NetworkAnalysis(network).streamed_distance_summary(
            tile_size=3, direction=direction
        )
        assert summary.diameter == expected["diameter"]
        assert summary.radius == expected["radius"]
        _assert_same_float(summary.average_distance, expected["average_distance"])
        assert summary.reachable_fraction == expected["reachable_fraction"]

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


class TestWholeInstanceAgainstOracle:
    def test_distance_summary_and_eccentricities(self, any_network):
        expected = oracle_distance_summary(any_network)
        handle = NetworkAnalysis(any_network)
        summary = handle.summary
        assert summary.diameter == expected["diameter"]
        assert summary.radius == expected["radius"]
        _assert_same_float(summary.average_distance, expected["average_distance"])
        assert summary.reachable_fraction == expected["reachable_fraction"]
        rows = oracle_arrival_matrix(any_network).tolist()
        np.testing.assert_array_equal(
            handle.eccentricities(), [max(row) for row in rows]
        )

    def test_reachability(self, any_network):
        expected = oracle_arrival_matrix(any_network) < UNREACHABLE
        actual = reachability.reachability_matrix(any_network)
        np.testing.assert_array_equal(actual, expected)
        assert reachability.is_temporally_connected(any_network) == expected.all()
        preserved = np.array_equal(expected, _required(any_network, "preserves"))
        assert reachability.preserves_reachability(any_network) == preserved
        assert NetworkAnalysis(any_network).preserves_reachability() == preserved

    def test_reach_only_reductions(self, any_network):
        """A fresh handle's ``reachable_fraction`` reduces the reach-only
        bitset and ``is_temporally_connected`` decides; both must equal the
        dense summary's values, and the fraction the oracle's."""
        summary = NetworkAnalysis(any_network).summary
        fraction = NetworkAnalysis(any_network).reachable_fraction
        assert fraction == summary.reachable_fraction
        assert fraction == oracle_distance_summary(any_network)["reachable_fraction"]
        assert reachability.is_temporally_connected(any_network) == (
            summary.diameter < UNREACHABLE
        )

    def test_centrality(self, any_network):
        expected = oracle_centrality(any_network)
        handle = NetworkAnalysis(any_network)
        for name, measure in [
            ("closeness", handle.closeness),
            ("harmonic", handle.harmonic_closeness),
            ("influence", handle.influence_counts),
            ("reach", handle.reach_counts),
        ]:
            np.testing.assert_allclose(measure(), expected[name], rtol=1e-12)

    def test_degenerate_summaries(self):
        single = NetworkAnalysis(_DEGENERATE["single-vertex"]).summary
        assert astuple(single) == (0, 0, 0.0, 1.0)
        empty = NetworkAnalysis(_DEGENERATE["unlabelled-path"]).summary
        assert (empty.diameter, empty.radius) == (UNREACHABLE, UNREACHABLE)
        assert np.isnan(empty.average_distance) and empty.reachable_fraction == 0.0


class TestLayoutsAgainstReference:
    """Both layouts hold the ``int64`` reference layout, stored or derived.

    Each layout stores its sweep columns and a narrow head column; the
    ``int64`` heads and the arc order back to the network are derived on
    first use and must equal the reference's gathered columns.
    """

    def test_forward_layout(self, any_network):
        network = any_network
        expected = timearc_csr_reference(
            network.n,
            network.lifetime,
            network.time_arc_tails,
            network.time_arc_heads,
            network.time_arc_labels,
        )
        assert_layout_matches(network.timearc_csr, expected)

    def test_reverse_layout(self, any_network):
        network = any_network
        a = network.lifetime
        expected = timearc_csr_reference(
            network.n,
            a,
            network.time_arc_heads,
            network.time_arc_tails,
            a + 1 - network.time_arc_labels,
        )
        assert_layout_matches(network.reverse_timearc_csr, expected)
