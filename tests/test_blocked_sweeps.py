"""Tiled-vs-dense parity harness for the out-of-core blocked sweep engine.

The contract under test (``src/repro/core/blocked_sweeps.py``): for every tile
size, both sweep directions and every jobs count, the blocked path's summaries
are **bit-identical** to the dense full-matrix path — tiling changes the
memory profile, never a single bit of a result.  The dense ``n ≤ 512``-class paths are the cross-validation oracle.

Degenerate coverage: the empty graph (no arcs at all — the fully-unreachable
NaN/sentinel regression pin), ``n ∈ {0, 1}``, a single source, and
``tile_size > n``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro
from repro import (
    NetworkAnalysis,
    complete_graph,
    erdos_renyi_graph,
    hypercube_graph,
    normalized_urtn,
    path_graph,
    star_graph,
    uniform_random_labels,
)
from repro.core.blocked_sweeps import (
    DEFAULT_TILE_SIZE,
    BlockedSummaryAccumulator,
    blocked_sweep_summary,
    resolve_tile_size,
    summary_of_distance_matrix,
)
from repro.core.journeys import foremost_journey_tree
from repro.core.temporal_graph import TemporalGraph
from repro.exceptions import ConfigurationError
from repro.graphs.static_graph import StaticGraph
from repro.scenarios import MetricSuite, get_scenario, run_scenario
from repro.types import UNREACHABLE


def _pool():
    """Structurally diverse instances, including partially-reachable ones."""
    return {
        "clique-directed": normalized_urtn(complete_graph(24, directed=True), seed=3),
        "clique-undirected": normalized_urtn(complete_graph(17), seed=0),
        "er-sparse": uniform_random_labels(
            erdos_renyi_graph(40, 0.08, directed=True, seed=7),
            lifetime=30,
            labels_per_edge=1,
            seed=11,
        ),
        "star": normalized_urtn(star_graph(21), seed=5),
        "path-r2": uniform_random_labels(
            path_graph(19), lifetime=25, labels_per_edge=2, seed=2
        ),
        "hypercube": normalized_urtn(hypercube_graph(5), seed=9),
    }


_POOL = _pool()

#: The fully-unreachable instance: vertices but not a single time arc.
_EMPTY = TemporalGraph(StaticGraph(6, []), [], lifetime=8)

#: An instance wider than one default tile: 300 vertices, so the default
#: width is 256 and two tiles cover it.
_WIDE = uniform_random_labels(path_graph(DEFAULT_TILE_SIZE + 44), lifetime=40, seed=4)


@pytest.fixture(params=sorted(_POOL), ids=sorted(_POOL))
def network(request):
    return _POOL[request.param]


def assert_summary_identical(actual, expected):
    """Bit-identical DistanceSummary comparison with ``nan == nan``."""
    assert actual.diameter == expected.diameter
    assert actual.radius == expected.radius
    if math.isnan(expected.average_distance):
        assert math.isnan(actual.average_distance)
    else:
        assert actual.average_distance == expected.average_distance
    assert actual.reachable_fraction == expected.reachable_fraction


def _dense_forward(network):
    return NetworkAnalysis(network).summary


def _dense_reverse(network):
    """Dense reference for the reverse direction: the full distances-to
    matrix pushed through the exact dense reduction."""
    return summary_of_distance_matrix(NetworkAnalysis(network).distances_to())


# --------------------------------------------------------------------- #
# the tentpole contract: tiled == dense, bit for bit
# --------------------------------------------------------------------- #
class TestTiledVsDenseParity:
    @pytest.mark.parametrize(
        "tile_size", [1, 5, 7, 64, None], ids=["t1", "t5", "t7", "t64", "tN"]
    )
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_bit_identical_summaries(self, network, tile_size, direction):
        width = network.n if tile_size is None else tile_size
        dense = (
            _dense_forward(network) if direction == "forward" else _dense_reverse(network)
        )
        result = blocked_sweep_summary(network, tile_size=width, direction=direction)
        assert_summary_identical(result.summary, dense)

    def test_eccentricities_and_reach_counts(self, network):
        handle = NetworkAnalysis(network)
        result = blocked_sweep_summary(network, tile_size=7)
        np.testing.assert_array_equal(result.eccentricities, handle.eccentricities())
        reach = handle.reachability().copy()
        np.fill_diagonal(reach, False)
        np.testing.assert_array_equal(result.reach_counts, reach.sum(axis=0))

    def test_moments_match_dense_population(self, network):
        matrix = NetworkAnalysis(network).arrival_matrix()
        mask = matrix < UNREACHABLE
        np.fill_diagonal(mask, False)
        values = matrix[mask]
        result = blocked_sweep_summary(network, tile_size=4)
        assert result.moments.count == int(values.size)
        assert result.moments.total == int(values.sum(dtype=object))
        assert result.moments.minimum == int(values.min())
        assert result.moments.maximum == int(values.max())

    def test_result_metadata(self, network):
        n = network.n
        result = blocked_sweep_summary(network, tile_size=7)
        assert result.direction == "forward"
        assert result.tile_size == 7
        assert result.num_tiles == -(-n // 7)
        assert result.spill is None


# --------------------------------------------------------------------- #
# degenerate tiles
# --------------------------------------------------------------------- #
class TestDegenerateInstances:
    def test_fully_unreachable_nan_sentinel_regression(self):
        """The satellite-4 pin: a graph with no arcs must stream to exactly
        the dense conventions — UNREACHABLE diameter/radius, nan average
        (never a 0/0 error), 0.0 reachable fraction — at every tile size."""
        dense = NetworkAnalysis(_EMPTY).summary
        assert dense.diameter == UNREACHABLE
        assert math.isnan(dense.average_distance)
        for tile_size in (1, 2, 4, _EMPTY.n, _EMPTY.n + 5):
            streamed = blocked_sweep_summary(_EMPTY, tile_size=tile_size).summary
            assert_summary_identical(streamed, dense)
            assert streamed.reachable_fraction == 0.0

    def test_fully_unreachable_reverse(self):
        dense = _dense_reverse(_EMPTY)
        streamed = blocked_sweep_summary(
            _EMPTY, tile_size=2, direction="reverse"
        ).summary
        assert_summary_identical(streamed, dense)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_instances(self, n):
        network = TemporalGraph(StaticGraph(n, []), [], lifetime=3)
        for direction in ("forward", "reverse"):
            result = blocked_sweep_summary(network, tile_size=4, direction=direction)
            assert result.summary == NetworkAnalysis(network).summary
            assert result.summary.reachable_fraction == 1.0
            assert result.eccentricities.shape == (n,)

    def test_single_source_tile(self):
        """tile_size=1 streams one source row at a time (2n sweeps total)."""
        network = _POOL["star"]
        result = blocked_sweep_summary(network, tile_size=1)
        assert result.num_tiles == network.n
        assert_summary_identical(result.summary, _dense_forward(network))

    def test_tile_size_larger_than_n_is_one_tile(self, network):
        result = blocked_sweep_summary(network, tile_size=10 * network.n)
        assert result.num_tiles == 1
        assert result.tile_size == network.n
        assert_summary_identical(result.summary, _dense_forward(network))

    def test_invalid_arguments(self):
        network = _POOL["star"]
        with pytest.raises(ConfigurationError):
            blocked_sweep_summary(network, tile_size=0)
        with pytest.raises(ConfigurationError):
            blocked_sweep_summary(network, tile_size=-3)
        with pytest.raises(ConfigurationError):
            blocked_sweep_summary(network, direction="sideways")


# --------------------------------------------------------------------- #
# label scales near the int64 range
# --------------------------------------------------------------------- #
class TestLargeLifetimes:
    """Exact moments past ``int64`` sums, and lifetimes the sentinel bounds."""

    @staticmethod
    def _near_2_32():
        """Path labels 2³²−2, 2³²−1, 2³²: the distances are those offsets
        −2 (twice), −1 (three times) and 0 (four times) from 2³², whose
        unbiased variance is 25/36."""
        labels = {0: [2**32 - 2], 1: [2**32 - 1], 2: [2**32]}
        return TemporalGraph(path_graph(4), labels, lifetime=2**32)

    @staticmethod
    def _near_10_18():
        """Path labels 10¹⁸ − 12 + e: one row's distance sum passes 2⁶³."""
        labels = {edge: [10**18 - 12 + edge] for edge in range(11)}
        return TemporalGraph(path_graph(12), labels, lifetime=10**18)

    @staticmethod
    def _exact_mean(matrix):
        values = [
            int(value)
            for i, row in enumerate(matrix.tolist())
            for j, value in enumerate(row)
            if i != j and value < UNREACHABLE
        ]
        return sum(values) / len(values)

    def test_variance_of_squares_past_int64(self):
        network = self._near_2_32()
        result = blocked_sweep_summary(network, tile_size=4)
        assert result.moments.variance == 25 / 36
        accumulator = BlockedSummaryAccumulator(network.n)
        accumulator.add_tile(np.arange(4), NetworkAnalysis(network).arrival_matrix())
        assert accumulator.moments.variance == 25 / 36

    def test_mean_of_sums_past_int64(self):
        network = self._near_10_18()
        matrix = NetworkAnalysis(network).arrival_matrix()
        exact = self._exact_mean(matrix)
        assert NetworkAnalysis(network).summary.average_distance == pytest.approx(exact)
        for tile_size in (1, 5, 12):
            summary = blocked_sweep_summary(network, tile_size=tile_size).summary
            assert summary.average_distance == exact
        accumulator = BlockedSummaryAccumulator(network.n)
        accumulator.add_tile(np.arange(network.n), matrix)
        assert accumulator.summary().average_distance == exact

    @pytest.mark.parametrize("lifetime", [UNREACHABLE, 2**62])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_lifetime_at_the_sentinel_is_refused(self, direction, lifetime):
        network = TemporalGraph(path_graph(3), {0: [5], 1: [7]}, lifetime=lifetime)
        with pytest.raises(ConfigurationError, match="UNREACHABLE"):
            blocked_sweep_summary(network, direction=direction)
        sweep = (
            repro.earliest_arrival_matrix
            if direction == "forward"
            else repro.latest_departure_matrix
        )
        with pytest.raises(ConfigurationError, match="UNREACHABLE"):
            sweep(network)
        with pytest.raises(ConfigurationError, match="UNREACHABLE"):
            foremost_journey_tree(network, 0)

    def test_largest_lifetime_below_the_sentinel_sweeps(self):
        network = TemporalGraph(
            path_graph(3), {0: [5], 1: [7]}, lifetime=UNREACHABLE - 1
        )
        forward = blocked_sweep_summary(network).summary
        reverse = blocked_sweep_summary(network, direction="reverse").summary
        assert forward.reachable_fraction == reverse.reachable_fraction == 5 / 6


# --------------------------------------------------------------------- #
# tile-size configuration
# --------------------------------------------------------------------- #
class TestTileSizeConfiguration:
    def test_resolution_order(self):
        assert resolve_tile_size(None, 10_000) == DEFAULT_TILE_SIZE
        assert resolve_tile_size(17, 10_000) == 17

    def test_clamped_to_instance(self):
        assert resolve_tile_size(1000, 12) == 12
        assert resolve_tile_size(None, 0) == 1
        assert resolve_tile_size(None, 1) == 1

    @pytest.mark.parametrize("width", [0, -3, 2.5, True, "8"])
    def test_invalid_widths_raise_configuration_error(self, width):
        with pytest.raises(ConfigurationError, match="tile_size"):
            resolve_tile_size(width, 100)


# --------------------------------------------------------------------- #
# memmap spill
# --------------------------------------------------------------------- #
class TestSpill:
    def test_spill_holds_the_full_distance_matrix(self, tmp_path, network):
        path = tmp_path / "rows.npy"
        result = blocked_sweep_summary(network, tile_size=5, spill_path=path)
        assert result.spill is not None
        dense = NetworkAnalysis(network).arrival_matrix()
        np.testing.assert_array_equal(np.asarray(result.spill), dense)
        # the .npy file round-trips through ordinary numpy loading
        reloaded = np.load(path, mmap_mode="r")
        np.testing.assert_array_equal(np.asarray(reloaded), dense)

    def test_reverse_spill_is_distances_to(self, tmp_path):
        network = _POOL["path-r2"]
        path = tmp_path / "rev.npy"
        result = blocked_sweep_summary(
            network, tile_size=4, direction="reverse", spill_path=path
        )
        np.testing.assert_array_equal(
            np.asarray(result.spill), NetworkAnalysis(network).distances_to()
        )


# --------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------- #
class TestTelemetry:
    def test_per_tile_counters(self, tmp_path):
        from repro import telemetry

        network = _POOL["clique-directed"]
        recorder = telemetry.TelemetryRecorder()
        with telemetry.attach(recorder):
            blocked_sweep_summary(
                network, tile_size=7, spill_path=tmp_path / "spill.npy"
            )
        expected_tiles = -(-network.n // 7)
        assert recorder.counters["blocked.tiles"] == expected_tiles
        assert recorder.counters["blocked.rows"] == network.n
        assert recorder.counters["blocked.spill_bytes"] == network.n * network.n * 8
        assert recorder.timings["blocked.tile_ms"].count == expected_tiles

    def test_no_recorder_no_counters(self):
        from repro import telemetry

        blocked_sweep_summary(_POOL["star"], tile_size=4)
        assert not telemetry.active()


# --------------------------------------------------------------------- #
# the analysis handle surface
# --------------------------------------------------------------------- #
class TestHandleSurface:
    def test_streamed_equals_dense_property(self, network):
        handle = NetworkAnalysis(network)
        assert_summary_identical(
            handle.streamed_distance_summary(tile_size=6), handle.summary
        )

    def test_streamed_does_not_materialize_dense_artifacts(self):
        network = _POOL["er-sparse"]
        handle = NetworkAnalysis(network)
        with repro.compute_events() as events:
            handle.streamed_distance_summary(tile_size=8)
        assert events.counts.get("streamed_summary") == 1
        assert "arrival_matrix" not in events.counts
        assert "summary" not in events.counts

    def test_streamed_is_memoized_per_key(self):
        network = _POOL["star"]
        handle = NetworkAnalysis(network)
        with repro.compute_events() as events:
            first = handle.streamed_distance_summary(tile_size=4)
            second = handle.streamed_distance_summary(tile_size=4)
            third = handle.streamed_distance_summary(tile_size=5)
        assert first is second
        assert_summary_identical(third, first)
        assert events.counts["streamed_summary"] == 2
        assert events.hits["streamed_summary"] == 1

    def test_invalidate_drops_streamed_cache(self):
        network = _POOL["star"]
        handle = NetworkAnalysis(network)
        handle.streamed_distance_summary(tile_size=4)
        handle.invalidate()
        with repro.compute_events() as events:
            handle.streamed_distance_summary(tile_size=4)
        assert events.counts["streamed_summary"] == 1

    def test_reverse_direction_on_handle(self, network):
        handle = NetworkAnalysis(network)
        assert_summary_identical(
            handle.streamed_distance_summary(tile_size=5, direction="reverse"),
            _dense_reverse(network),
        )

    def test_default_tile_size_applies(self):
        result = blocked_sweep_summary(_WIDE)
        assert (result.tile_size, result.num_tiles) == (DEFAULT_TILE_SIZE, 2)
        assert_summary_identical(result.summary, _dense_forward(_WIDE))

    def test_streamed_memo_shares_none_and_the_default_width(self):
        handle = NetworkAnalysis(_WIDE)
        with repro.compute_events() as events:
            first = handle.streamed_distance_summary()
            second = handle.streamed_distance_summary(tile_size=DEFAULT_TILE_SIZE)
        assert second is first
        assert events.counts["streamed_summary"] == 1
        assert events.hits["streamed_summary"] == 1

    def test_streamed_memo_shares_widths_past_n(self):
        network = _POOL["star"]
        handle = NetworkAnalysis(network)
        with repro.compute_events() as events:
            first = handle.streamed_distance_summary(tile_size=network.n)
            second = handle.streamed_distance_summary(tile_size=10 * network.n)
            reverse = handle.streamed_distance_summary(
                tile_size=network.n, direction="reverse"
            )
        assert second is first
        assert_summary_identical(reverse, _dense_reverse(network))
        assert events.counts["streamed_summary"] == 2
        assert events.hits["streamed_summary"] == 1

    def test_top_level_exports(self):
        assert repro.blocked_sweep_summary is blocked_sweep_summary


# --------------------------------------------------------------------- #
# the engine: mode="blocked" metrics, --jobs composition
# --------------------------------------------------------------------- #
class TestEngineComposition:
    def _records(self, *, jobs=None, tile_size=None):
        scenario = get_scenario("hypercube-urtn-diameter")
        if tile_size is not None:
            (spec,) = scenario.metrics
            options = {**spec.options, "tile_size": tile_size}
            scenario = dataclasses.replace(
                scenario,
                metrics=MetricSuite.of(dataclasses.replace(spec, options=options)),
            )
        return run_scenario(scenario, scale="quick", seed=11, jobs=jobs).to_records()

    def test_blocked_mode_bit_identical_through_pipeline(self):
        assert self._records() == self._records(tile_size=3)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blocked_composes_with_jobs(self, jobs):
        assert self._records() == self._records(tile_size=3, jobs=jobs)

    def test_metric_mode_knob(self):
        from repro.scenarios.metrics import METRICS, TrialContext

        network = _POOL["hypercube"]
        def ctx():
            return TrialContext(
                graph=None, network=network, params={}, rng=np.random.default_rng(0)
            )

        fields = ["temporal_diameter", "mean_temporal_distance", "reachable_fraction"]
        dense = METRICS["distance_summary"](ctx(), {"fields": fields, "mode": "dense"})
        blocked = METRICS["distance_summary"](
            ctx(), {"fields": fields, "mode": "blocked", "tile_size": 5}
        )
        assert dense == blocked
        with pytest.raises(ConfigurationError):
            METRICS["distance_summary"](ctx(), {"mode": "chunky"})
