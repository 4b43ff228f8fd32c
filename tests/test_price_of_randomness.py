"""Tests for repro.core.price_of_randomness."""

from __future__ import annotations

import math

import pytest

from oracles import opt_labels_exhaustive
from repro.core.price_of_randomness import (
    opt_labels_lower_bound,
    opt_labels_star,
    opt_labels_upper_bound,
    por_upper_bound_theorem8,
    price_of_randomness,
    r_sufficient_theorem7,
)
from repro.exceptions import ConfigurationError, GraphError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.properties import diameter
from repro.graphs.static_graph import StaticGraph


class TestOptBounds:
    def test_star_opt_value(self):
        assert opt_labels_star(10) == 18  # 2·(n−1)
        assert opt_labels_star(3) == 4

    def test_star_opt_degenerate(self):
        assert opt_labels_star(1) == 0
        assert opt_labels_star(2) == 1

    def test_lower_bound_is_n_minus_one(self):
        assert opt_labels_lower_bound(path_graph(7)) == 6
        assert opt_labels_lower_bound(complete_graph(5)) == 4

    def test_lower_bound_requires_connected(self):
        with pytest.raises(GraphError):
            opt_labels_lower_bound(StaticGraph(4, [(0, 1)]))

    def test_upper_bound_general(self):
        assert opt_labels_upper_bound(path_graph(7)) == 12
        assert opt_labels_upper_bound(grid_graph(3, 3)) == 16

    def test_upper_bound_clique_uses_m(self):
        graph = complete_graph(4)
        assert opt_labels_upper_bound(graph) == min(2 * 3, graph.m)

    def test_bounds_are_ordered(self):
        for graph in (path_graph(6), cycle_graph(7), star_graph(9), grid_graph(3, 4)):
            assert opt_labels_lower_bound(graph) <= opt_labels_upper_bound(graph)

    def test_star_upper_bound_matches_exact_opt(self):
        graph = star_graph(9)
        assert opt_labels_upper_bound(graph) == opt_labels_star(9)


class TestExhaustiveOpt:
    def test_single_edge(self):
        graph = path_graph(2)
        assert opt_labels_exhaustive(graph, lifetime=2) == 1

    def test_path_of_three_needs_three_labels(self):
        # Edges {0,1} and {1,2}: two labels on one of them plus one on the other
        # give journeys in both directions (e.g. {1,3} and {2}).
        graph = path_graph(3)
        assert opt_labels_exhaustive(graph, lifetime=3) == 3

    def test_triangle_needs_three_labels(self):
        graph = complete_graph(3)
        # One label per edge suffices on the clique, so OPT = m = 3.
        assert opt_labels_exhaustive(graph, lifetime=3) == 3

    def test_small_star_matches_formula(self):
        graph = star_graph(3)  # same as path of 3 through the centre
        assert opt_labels_exhaustive(graph, lifetime=3) <= opt_labels_star(3)

    def test_search_space_guard(self):
        with pytest.raises(ConfigurationError):
            opt_labels_exhaustive(grid_graph(3, 3))

    @pytest.mark.parametrize(
        "graph, lifetime",
        [
            (path_graph(3), 4),
            (path_graph(3), 8),
            (path_graph(4), 4),
            (cycle_graph(4), 4),
            (cycle_graph(5), 3),
        ],
        ids=["path3-a4", "path3-a8", "path4-a4", "cycle4-a4", "cycle5-a3"],
    )
    def test_exhaustive_within_analytic_bounds(self, graph, lifetime):
        value = opt_labels_exhaustive(graph, lifetime=lifetime)
        assert opt_labels_lower_bound(graph) <= value <= opt_labels_upper_bound(graph)


class TestExhaustiveCertifiesStarOpt:
    """The exhaustive search certifies ``opt_labels_star`` on stars small
    enough for it (at most 6 edges)."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_star_at_lifetime_two_needs_opt_labels_star(self, n):
        assert opt_labels_exhaustive(star_graph(n), lifetime=2) == opt_labels_star(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_star_from_lifetime_three_needs_one_label_fewer(self, n):
        # One leaf edge may carry a single label strictly between the two
        # labels of every other leaf edge, so 2m − 1 labels suffice once the
        # lifetime leaves room for it: opt_labels_star(n) is exact at
        # lifetime 2 and an upper bound from lifetime 3 on.
        graph = star_graph(n)
        value = opt_labels_exhaustive(graph, lifetime=3)
        assert value == opt_labels_star(n) - 1
        assert opt_labels_lower_bound(graph) <= value


class TestPriceOfRandomness:
    def test_definition(self):
        graph = star_graph(11)
        r = 7
        por = price_of_randomness(graph, r, opt=opt_labels_star(11))
        assert por == pytest.approx(graph.m * r / (2 * graph.m))
        assert por == pytest.approx(r / 2)

    def test_default_opt_is_upper_bound(self):
        graph = grid_graph(3, 3)
        por_default = price_of_randomness(graph, 5)
        por_explicit = price_of_randomness(graph, 5, opt=opt_labels_upper_bound(graph))
        assert por_default == por_explicit

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            price_of_randomness(star_graph(5), 0)


class TestTheoremBounds:
    def test_r_sufficient_formula(self):
        assert r_sufficient_theorem7(100, 3) == pytest.approx(6 * math.log(100))

    def test_por_bound_formula(self):
        n, m, d = 50, 120, 4
        expected = (2 * d * math.log(n)) * m / (n - 1)
        assert por_upper_bound_theorem8(n, m, d) == pytest.approx(expected)

    def test_por_bound_with_epsilon(self):
        base = por_upper_bound_theorem8(50, 120, 4)
        assert por_upper_bound_theorem8(50, 120, 4, epsilon=1.0) > base

    def test_por_bound_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            por_upper_bound_theorem8(50, 120, 4, epsilon=-1.0)

    def test_star_por_theorem6_consistency(self):
        # For the star (d = 2, m = n−1), Theorem 8 gives ≈ 4·log n, consistent
        # with the Θ(log n) statement of Theorem 6.
        n = 200
        bound = por_upper_bound_theorem8(n, n - 1, 2)
        assert bound == pytest.approx(4 * math.log(n))

    def test_measured_por_below_theorem8_bound(self):
        graph = star_graph(64)
        d = diameter(graph)
        r_hat = 8  # a plausible empirical threshold around log n
        measured = price_of_randomness(graph, r_hat, opt=opt_labels_star(64))
        assert measured <= por_upper_bound_theorem8(64, graph.m, d)
