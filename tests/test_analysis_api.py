"""Tests for the :class:`repro.analysis_api.NetworkAnalysis` handle.

Covers: equality with the core reductions of one batched sweep
(:mod:`repro.core.distances`, :mod:`repro.core.centrality`), the compute-once
memoization contract (asserted through the counting hook, including through
the scenario ``TrialContext`` used by every Monte-Carlo trial), derived
restricted analyses, row queries, expansion/PoR memoization and cache
control.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis_api as analysis_api
from repro import (
    ExpansionParameters,
    NetworkAnalysis,
    UNREACHABLE,
    complete_graph,
    earliest_arrival_matrix,
    earliest_arrival_times,
    expansion_process,
    is_temporally_connected,
    normalized_urtn,
    opt_labels_star,
    preserves_reachability,
    price_of_randomness,
    star_graph,
    telemetry,
    uniform_random_labels,
)
from repro.core.centrality import centrality_arrays
from repro.core.distances import distance_summary, eccentricities_of
from repro.core.reachability import reachability_matrix
from repro.exceptions import ConfigurationError
from repro.scenarios.metrics import METRICS, TrialContext
from repro.scenarios.specs import MetricSpec
from repro.types import Journey


@pytest.fixture
def clique_network():
    return normalized_urtn(complete_graph(24, directed=True), seed=7)


class _LiveCounts:
    """Dict-like live view of a :class:`ComputeEvents` scope's compute counts."""

    def __init__(self, events: analysis_api.ComputeEvents) -> None:
        self._events = events

    def _counts(self) -> dict[str, int]:
        return self._events.counts

    def __eq__(self, other: object) -> bool:
        return self._counts() == other

    def __getitem__(self, key: str) -> int:
        return self._counts()[key]

    def get(self, key: str, default: int | None = None) -> int | None:
        return self._counts().get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._counts()

    def __repr__(self) -> str:
        return repr(self._counts())


@pytest.fixture
def counting_hook():
    """Scoped per-artifact compute counter (the compute_events probe)."""
    with analysis_api.compute_events() as events:
        yield _LiveCounts(events)


def _core_summary(network):
    """The core reduction of one batched sweep, with no handle."""
    matrix = earliest_arrival_matrix(network)
    return distance_summary(matrix, eccentricities_of(matrix), matrix < UNREACHABLE)


class TestHandleMatchesCoreReductions:
    def test_scalar_views(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        expected = _core_summary(clique_network)
        assert analysis.diameter == expected.diameter
        assert analysis.radius == expected.radius
        assert analysis.average_distance == expected.average_distance
        assert analysis.is_temporally_connected == is_temporally_connected(
            clique_network
        )
        assert analysis.summary == expected

    def test_array_views(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        matrix = earliest_arrival_matrix(clique_network)
        assert np.array_equal(analysis.arrival_matrix(), matrix)
        assert np.array_equal(analysis.eccentricities(), eccentricities_of(matrix))
        assert np.array_equal(
            analysis.reachability(), reachability_matrix(clique_network)
        )
        assert analysis.reachable_fraction == _core_summary(
            clique_network
        ).reachable_fraction

    def test_preserves_reachability_matches(self):
        for seed in range(6):
            network = uniform_random_labels(
                star_graph(9), labels_per_edge=1, lifetime=9, seed=seed
            )
            assert NetworkAnalysis(network).preserves_reachability() == (
                preserves_reachability(network)
            )

    def test_partially_unreachable_instance(self):
        # A path with one label per edge in the "wrong" order: unreachable pairs.
        from repro.core.temporal_graph import TemporalGraph
        from repro import path_graph

        network = TemporalGraph(path_graph(4), [(3,), (2,), (1,)])
        analysis = NetworkAnalysis(network)
        assert analysis.diameter == UNREACHABLE
        assert not analysis.is_temporally_connected
        assert not analysis.preserves_reachability()
        assert analysis.reachable_fraction < 1.0

    def test_trivial_networks(self):
        from repro.core.temporal_graph import TemporalGraph
        from repro.graphs.static_graph import StaticGraph

        single = TemporalGraph(StaticGraph(1, []), [])
        analysis = NetworkAnalysis(single)
        assert analysis.diameter == 0
        assert analysis.radius == 0
        assert analysis.average_distance == 0.0
        assert analysis.reachable_fraction == 1.0
        assert analysis.is_temporally_connected
        assert analysis.preserves_reachability()
        assert np.array_equal(analysis.eccentricities(), np.zeros(1, dtype=np.int64))

    def test_rejects_non_network(self):
        with pytest.raises(ConfigurationError):
            NetworkAnalysis(complete_graph(4))


class TestMemoization:
    def test_each_artifact_computed_at_most_once(self, clique_network, counting_hook):
        analysis = NetworkAnalysis(clique_network)
        for _ in range(3):
            analysis.diameter
            analysis.radius
            analysis.average_distance
            analysis.reachable_fraction
            analysis.is_temporally_connected
            analysis.eccentricities()
            analysis.reachability()
            analysis.arrival_matrix()
            analysis.preserves_reachability()
        assert counting_hook == {
            "arrival_matrix": 1,
            "eccentricities": 1,
            "reachability": 1,
            "summary": 1,
            "static_reachability": 1,
        }

    @pytest.mark.parametrize("labels_per_edge", [1, 3])
    def test_reachable_fraction_sweeps_reach_only(self, labels_per_edge):
        """A fresh handle counts its reachability mask; after a summary, the cached mask answers."""
        network = uniform_random_labels(
            star_graph(9), labels_per_edge=labels_per_edge, lifetime=9, seed=2
        )
        analysis = NetworkAnalysis(network)
        with analysis_api.compute_events() as events:
            fraction = analysis.reachable_fraction
        assert events.counts == {"reachability": 1}
        assert fraction == _core_summary(network).reachable_fraction
        summarized = NetworkAnalysis(network)
        summarized.diameter
        with analysis_api.compute_events() as events:
            assert summarized.reachable_fraction == fraction
        assert events.counts == {}
        assert events.hits == {"reachability": 1}

    def test_invalidate_forces_recompute(self, clique_network, counting_hook):
        analysis = NetworkAnalysis(clique_network)
        before = analysis.diameter
        analysis.invalidate()
        assert analysis.diameter == before
        assert counting_hook["arrival_matrix"] == 2

    def test_set_compute_hook_shim_is_gone(self):
        assert not hasattr(analysis_api, "set_compute_hook")

    def test_compute_events_reports_hits(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        with analysis_api.compute_events() as events:
            analysis.arrival_matrix()
            analysis.arrival_matrix()
        assert events.counts == {"arrival_matrix": 1}
        assert events.hits == {"arrival_matrix": 1}

    def test_compute_events_nests_and_composes(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        with analysis_api.compute_events() as outer:
            with analysis_api.compute_events() as inner:
                analysis.arrival_matrix()
            analysis.eccentricities()
        assert inner.counts == {"arrival_matrix": 1}
        assert outer.counts == {"arrival_matrix": 1, "eccentricities": 1}

    def test_returned_arrays_are_read_only(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        for array in (
            analysis.arrival_matrix(),
            analysis.eccentricities(),
            analysis.reachability(),
            analysis.distances_from([0, 1]),
        ):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_expansion_memoized_and_matches_free_function(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        first = analysis.expansion(0, 5)
        again = analysis.expansion(0, 5)
        assert first is again
        assert counting_hook.get("expansion") == 1
        direct = expansion_process(clique_network, 0, 5)
        assert first.success == direct.success
        assert first.forward_layer_sizes == direct.forward_layer_sizes

    def test_por_audit_memoized(self, counting_hook):
        network = uniform_random_labels(
            star_graph(12), labels_per_edge=4, lifetime=12, seed=3
        )
        analysis = NetworkAnalysis(network)
        audit = analysis.por_audit()
        assert analysis.por_audit() is audit
        assert counting_hook.get("por_audit") == 1
        assert audit.r == 4
        assert audit.total_labels == network.total_labels
        assert audit.measured_por == price_of_randomness(
            network.graph, 4, opt=audit.opt
        )
        # explicit arguments form their own memo entries
        explicit = analysis.por_audit(8, opt=opt_labels_star(12))
        assert explicit.r == 8
        assert explicit.opt == opt_labels_star(12)
        assert counting_hook["por_audit"] == 2

    def test_por_audit_requires_labels(self):
        from repro.core.temporal_graph import TemporalGraph

        empty = TemporalGraph(star_graph(4), {})
        with pytest.raises(ConfigurationError, match="r >= 1"):
            NetworkAnalysis(empty).por_audit()

    def test_por_audit_bounds_opt_at_the_instance_lifetime(self):
        from repro import cycle_graph
        from repro.core.price_of_randomness import opt_labels_upper_bound

        graph = cycle_graph(5)
        short = uniform_random_labels(graph, labels_per_edge=2, lifetime=3, seed=1)
        # 2(n − 1) bounds OPT only from lifetime 2·radius = 4 on.
        with pytest.raises(ConfigurationError, match="lifetime 3"):
            NetworkAnalysis(short).por_audit()
        assert NetworkAnalysis(short).por_audit(opt=10).opt == 10
        normal = uniform_random_labels(graph, labels_per_edge=2, lifetime=5, seed=1)
        assert NetworkAnalysis(normal).por_audit().opt == opt_labels_upper_bound(graph, 5)


class TestRowQueries:
    def test_distances_from_slices_cached_matrix(self, clique_network, counting_hook):
        analysis = NetworkAnalysis(clique_network)
        full = analysis.arrival_matrix()
        rows = analysis.distances_from([3, 0])
        assert np.array_equal(rows, full[[3, 0]])
        assert "source_rows" not in counting_hook

    def test_distances_from_without_matrix_uses_memoized_rows(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        rows = analysis.distances_from([2, 4])
        assert counting_hook == {"source_rows": 1}
        again = analysis.distances_from([4, 2])
        assert counting_hook == {"source_rows": 1}  # served from the row cache
        assert np.array_equal(rows[::-1], again)
        assert np.array_equal(rows, earliest_arrival_matrix(clique_network, [2, 4]))

    def test_distance_matches_temporal_distance(self, clique_network):
        expected = earliest_arrival_times(clique_network, 1)[6]
        analysis = NetworkAnalysis(clique_network)
        assert analysis.distance(1, 6) == expected
        analysis.arrival_matrix()
        assert analysis.distance(1, 6) == expected

    def test_distances_from_none_is_full_matrix(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        assert np.array_equal(
            analysis.distances_from(), earliest_arrival_matrix(clique_network)
        )

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_empty_row_queries_are_read_only(self, clique_network, cached):
        analysis = NetworkAnalysis(clique_network)
        if cached:
            analysis.arrival_matrix()
            analysis.departure_matrix()
        for rows in (analysis.distances_from([]), analysis.departures_to([])):
            assert rows.shape == (0, clique_network.n)
            assert not rows.flags.writeable

    def test_invalid_source_rejected(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        with pytest.raises(ValueError):
            analysis.distances_from([99])
        with pytest.raises(ValueError):
            analysis.distance(0, 99)


class TestRestrictedAnalysis:
    def test_derived_matrix_matches_fresh_computation(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        analysis.arrival_matrix()
        for k in (3, analysis.diameter, clique_network.lifetime):
            derived = analysis.restricted_to_max_label(k)
            fresh = NetworkAnalysis(clique_network.restricted_to_max_label(k))
            assert np.array_equal(derived.arrival_matrix(), fresh.arrival_matrix())

    def test_derivation_skips_the_sweep(self, clique_network, counting_hook):
        analysis = NetworkAnalysis(clique_network)
        analysis.arrival_matrix()
        child = analysis.restricted_to_max_label(5)
        child.diameter  # reductions run, but no second arrival sweep
        assert counting_hook["arrival_matrix"] == 1

    def test_without_cached_matrix_child_computes_its_own(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        child = analysis.restricted_to_max_label(5)
        child.arrival_matrix()
        assert counting_hook["arrival_matrix"] == 1  # the child's, not the parent's

    def test_child_wraps_restricted_network(self, clique_network):
        child = NetworkAnalysis(clique_network).restricted_to_max_label(4)
        assert child.network.time_arc_labels.size == int(
            (clique_network.time_arc_labels <= 4).sum()
        )


class TestTrialContextSharing:
    SUITE = (
        MetricSpec("temporal_diameter"),
        MetricSpec(
            "distance_summary",
            {"fields": ["mean_temporal_distance", "temporal_radius"]},
        ),
        MetricSpec("ratio_to_log_n"),
        MetricSpec("strong_reachability"),
    )

    def _run_suite(self, network) -> tuple[dict[str, float], TrialContext]:
        ctx = TrialContext(
            graph=network.graph,
            network=network,
            params={"n": network.n},
            rng=np.random.default_rng(0),
        )
        for spec in self.SUITE:
            ctx.metrics.update(METRICS[spec.metric](ctx, spec.options))
        return dict(ctx.metrics), ctx

    def test_multi_metric_suite_computes_each_artifact_once(
        self, clique_network, counting_hook
    ):
        metrics, ctx = self._run_suite(clique_network)
        assert counting_hook == {
            "arrival_matrix": 1,
            "eccentricities": 1,
            "reachability": 1,
            "summary": 1,
            "static_reachability": 1,
        }
        assert ctx.analysis is not None
        assert metrics["temporal_diameter"] == float(
            _core_summary(clique_network).diameter
        )

    def test_require_analysis_reuses_one_handle(self, clique_network):
        ctx = TrialContext(
            graph=clique_network.graph,
            network=clique_network,
            params={},
            rng=np.random.default_rng(0),
        )
        first = ctx.require_analysis("temporal_diameter")
        assert ctx.require_analysis("strong_reachability") is first

    def test_require_analysis_without_network_raises(self):
        ctx = TrialContext(
            graph=None, network=None, params={}, rng=np.random.default_rng(0)
        )
        with pytest.raises(ConfigurationError, match="temporal_diameter"):
            ctx.require_analysis("temporal_diameter")

    def test_expansion_metric_journey_still_reconstructable(self):
        network = normalized_urtn(complete_graph(32, directed=True), seed=11)
        ctx = TrialContext(
            graph=network.graph,
            network=network,
            params={"n": 32},
            rng=np.random.default_rng(5),
        )
        metrics = METRICS["expansion_process"](ctx, {})
        assert set(metrics) >= {"success", "time_bound", "sqrt_n"}
        if metrics["success"]:
            assert metrics["optimal_arrival"] <= metrics["arrival_time"]
        # the trace is memoized on the shared handle: Algorithm 1 with the
        # metric's own arguments (the same rng draw) is a cache hit
        source, target = np.random.default_rng(5).choice(32, size=2, replace=False)
        with analysis_api.compute_events() as events:
            ctx.analysis.expansion(int(source), int(target), ExpansionParameters.suggest(32))
        assert events.hits == {"expansion": 1} and events.counts == {}


class TestReverseArtifacts:
    """The target-side (reverse-sweep) artifacts obey the same compute-once
    contract as the forward ones — and never trigger a forward sweep."""

    def test_departure_matrix_computed_at_most_once(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        for _ in range(3):
            analysis.departure_matrix()
            analysis.departures_to()
            analysis.distances_to()
        assert counting_hook == {"departure_matrix": 1}

    def test_invalidate_clears_reverse_artifacts(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        before = analysis.departure_matrix().copy()
        analysis.invalidate()
        np.testing.assert_array_equal(analysis.departure_matrix(), before)
        assert counting_hook["departure_matrix"] == 2

    def test_single_target_query_never_runs_forward_sweep(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        analysis.distances_to([3])
        analysis.reverse_reachable_set(3)
        analysis.latest_departure(0, 3)
        assert counting_hook == {"target_columns": 1}

    def test_single_target_queries_never_build_the_reverse_layout(
        self, clique_network
    ):
        network = normalized_urtn(complete_graph(24, directed=True), seed=7)
        analysis = NetworkAnalysis(network)
        with telemetry.session() as recorder:
            analysis.distances_to([3])
            analysis.latest_departure(0, 5)
            analysis.reverse_reachable_set(7)
        assert network._reverse_timearc_csr is None
        assert "csr.builds.reverse" not in recorder.counters
        assert recorder.counters["kernel.reverse.sweeps"] == 3
        expected = NetworkAnalysis(clique_network).departure_matrix()
        np.testing.assert_array_equal(
            analysis.departures_to([3, 5, 7]), expected[[3, 5, 7]]
        )
        with telemetry.session() as recorder:
            analysis.departure_matrix()
            analysis.departure_matrix()
            analysis.distances_to()
        assert network._reverse_timearc_csr is not None
        assert recorder.counters["csr.builds.reverse"] == 1

    def test_departures_to_served_from_cached_matrix(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        matrix = analysis.departure_matrix()
        rows = analysis.departures_to([5, 2])
        np.testing.assert_array_equal(rows, matrix[[5, 2]])
        assert counting_hook == {"departure_matrix": 1}

    def test_target_columns_match_full_matrix(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        narrow = analysis.distances_to([4])
        full = NetworkAnalysis(clique_network).departure_matrix()
        horizon = clique_network.lifetime + 1
        from repro import NEVER

        expected = np.where(full[4] == NEVER, UNREACHABLE, horizon - full[4])
        np.testing.assert_array_equal(narrow[0], expected)

    def test_distances_to_diagonal_and_sentinels(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        distances = analysis.distances_to()
        assert (np.diag(distances) == 0).all()
        finite = distances[distances < UNREACHABLE]
        assert (finite <= clique_network.lifetime).all()

    def test_centrality_artifact_computed_once_for_whole_family(
        self, clique_network, counting_hook
    ):
        analysis = NetworkAnalysis(clique_network)
        for _ in range(2):
            analysis.closeness()
            analysis.harmonic_closeness()
            analysis.influence_counts()
            analysis.reach_counts()
        assert counting_hook == {
            "arrival_matrix": 1,
            "reachability": 1,
            "centrality": 1,
        }

    def test_centrality_matches_core_reduction(self, clique_network):
        matrix = earliest_arrival_matrix(clique_network)
        expected = centrality_arrays(matrix, matrix < UNREACHABLE)
        analysis = NetworkAnalysis(clique_network)
        np.testing.assert_array_equal(analysis.closeness(), expected["closeness"])
        np.testing.assert_array_equal(
            analysis.harmonic_closeness(), expected["harmonic"]
        )
        np.testing.assert_array_equal(
            analysis.influence_counts(), expected["influence"]
        )
        np.testing.assert_array_equal(analysis.reach_counts(), expected["reach"])

    def test_reverse_reachability_transposes_forward(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        forward = analysis.reachability()
        for target in [0, 7, 13]:
            np.testing.assert_array_equal(
                analysis.reverse_reachable_set(target),
                np.flatnonzero(forward[:, target]),
            )

    def test_returned_arrays_are_read_only(self, clique_network):
        analysis = NetworkAnalysis(clique_network)
        for array in (
            analysis.departure_matrix(),
            analysis.distances_to([1]),
            analysis.closeness(),
            analysis.influence_counts(),
        ):
            with pytest.raises(ValueError):
                array[0] = 0
