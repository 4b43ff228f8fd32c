"""Tests for repro.core.guarantees: empirical r(n) and 2-split journeys."""

from __future__ import annotations

import math

import pytest

from oracles import minimal_labels_linear_sweep
from repro.core.guarantees import (
    minimal_labels_for_reachability,
    reachability_probability,
    two_split_journey_probability,
    two_split_journey_probability_analytic,
)
from repro.exceptions import ConfigurationError
from repro.graphs.generators import complete_graph, path_graph, star_graph


class TestReachabilityProbability:
    def test_clique_single_label_is_always_reachable(self):
        probability = reachability_probability(
            complete_graph(8, directed=True), 1, trials=10, seed=0
        )
        assert probability == 1.0

    def test_star_single_label_never_reachable(self):
        probability = reachability_probability(star_graph(12), 1, trials=20, seed=0)
        assert probability == 0.0

    def test_star_many_labels_reachable(self):
        n = 16
        r = 4 * int(math.ceil(math.log(n)))
        probability = reachability_probability(star_graph(n), r, trials=20, seed=1)
        assert probability >= 0.9

    def test_probability_monotone_in_r(self):
        graph = star_graph(16)
        low = reachability_probability(graph, 2, trials=40, seed=2)
        high = reachability_probability(graph, 12, trials=40, seed=3)
        assert high >= low

    def test_reproducible(self):
        graph = path_graph(6)
        a = reachability_probability(graph, 4, trials=15, seed=5)
        b = reachability_probability(graph, 4, trials=15, seed=5)
        assert a == b

    def test_custom_lifetime(self):
        graph = star_graph(8)
        probability = reachability_probability(graph, 8, lifetime=2, trials=20, seed=6)
        # with labels drawn from {1, 2} and 8 draws per edge, each of the 7 edges
        # receives both labels with probability 1 − 2·2^{−8} ≈ 0.992, so the star
        # is reachable in most trials
        assert probability > 0.5


class TestMinimalLabels:
    def test_clique_needs_one_label(self):
        r = minimal_labels_for_reachability(
            complete_graph(8, directed=True), trials=10, seed=0
        )
        assert r == 1

    def test_star_threshold_is_plausible(self):
        n = 24
        r = minimal_labels_for_reachability(
            star_graph(n), target_probability=0.8, trials=20, seed=1
        )
        assert 2 <= r <= 6 * math.log(n)

    def test_linear_sweep_agrees_with_binary_search(self):
        graph = star_graph(16)
        binary = minimal_labels_for_reachability(
            graph, target_probability=0.8, trials=30, seed=7
        )
        linear = minimal_labels_linear_sweep(
            graph, target_probability=0.8, trials=30, seed=8, r_max=32
        )
        assert abs(binary - linear) <= 3  # Monte-Carlo noise tolerance

    def test_unreachable_target_raises(self):
        # A path with lifetime 1 can never satisfy both directions.
        with pytest.raises(ConfigurationError):
            minimal_labels_for_reachability(
                path_graph(4), lifetime=1, trials=5, r_max=4, seed=2
            )

    def test_linear_sweep_unreachable_raises(self):
        with pytest.raises(ConfigurationError):
            minimal_labels_linear_sweep(
                path_graph(4), lifetime=1, trials=5, r_max=3, seed=3
            )


class TestTwoSplitJourneys:
    def test_analytic_increases_with_r(self):
        values = [two_split_journey_probability_analytic(64, r) for r in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_analytic_single_label(self):
        n = 64
        value = two_split_journey_probability_analytic(n, 1)
        labels_below = (n // 2) - 1  # labels strictly below n/2
        labels_above = n - n // 2  # labels strictly above n/2
        expected = (labels_below / n) * (labels_above / n)
        assert value == pytest.approx(expected)

    def test_monte_carlo_matches_analytic(self):
        n, r = 128, 5
        measured = two_split_journey_probability(n, r, trials=4000, seed=0)
        exact = two_split_journey_probability_analytic(n, r)
        assert measured == pytest.approx(exact, abs=0.04)

    def test_probability_bounds(self):
        value = two_split_journey_probability(32, 3, trials=500, seed=1)
        assert 0.0 <= value <= 1.0

    def test_theorem6_bound_holds(self):
        # P(2-split) >= (1 - 2^-r)^2 approximately (the paper's bound uses
        # halves of the label range); the analytic value should not be far below.
        n, r = 256, 10
        exact = two_split_journey_probability_analytic(n, r)
        assert exact >= (1 - 2 ** (-r)) ** 2 - 0.05
