"""Tests for repro.erdosrenyi.gnp and thresholds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import UnionFind
from repro.erdosrenyi.gnp import (
    connectivity_probability,
    giant_component_fraction,
    gnp_connectivity,
    is_gnp_connected,
    sample_gnp_edges,
)
from repro.erdosrenyi.thresholds import connectivity_threshold_curve, critical_probability


class TestUnionFind:
    def test_initially_all_separate(self):
        forest = UnionFind(5)
        assert forest.num_components == 5
        assert not forest.connected(0, 1)

    def test_union_reduces_components(self):
        forest = UnionFind(4)
        assert forest.union(0, 1)
        assert forest.num_components == 3
        assert forest.connected(0, 1)

    def test_union_of_same_component_is_noop(self):
        forest = UnionFind(4)
        forest.union(0, 1)
        assert not forest.union(1, 0)
        assert forest.num_components == 3

    def test_transitive_connectivity(self):
        forest = UnionFind(5)
        forest.union(0, 1)
        forest.union(1, 2)
        forest.union(3, 4)
        assert forest.connected(0, 2)
        assert not forest.connected(0, 3)

    def test_component_sizes(self):
        forest = UnionFind(6)
        forest.union(0, 1)
        forest.union(1, 2)
        forest.union(3, 4)
        assert sorted(forest.component_sizes().tolist()) == [1, 2, 3]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            UnionFind(0)


@st.composite
def edge_arrays(draw):
    """``(n, edges_u, edges_v)``: any pairs, self-loops and repeats included."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges_u = np.array([u for u, _ in pairs], dtype=np.int64)
    edges_v = np.array([v for _, v in pairs], dtype=np.int64)
    return n, edges_u, edges_v


NO_EDGES = np.empty(0, dtype=np.int64)


@given(case=edge_arrays())
@example(case=(1, NO_EDGES, NO_EDGES))
@example(case=(4, NO_EDGES, NO_EDGES))
@example(case=(3, np.array([0, 1]), np.array([1, 2])))
@settings(max_examples=200, deadline=None)
def test_connectivity_matches_union_find(case):
    n, edges_u, edges_v = case
    forest = UnionFind(n)
    for u, v in zip(edges_u.tolist(), edges_v.tolist()):
        forest.union(u, v)
    assert is_gnp_connected(n, edges_u, edges_v) is (forest.num_components == 1)
    assert giant_component_fraction(n, edges_u, edges_v) == (
        float(forest.component_sizes().max()) / n
    )
    assert gnp_connectivity(n, edges_u, edges_v) == (
        is_gnp_connected(n, edges_u, edges_v),
        giant_component_fraction(n, edges_u, edges_v),
    )


class TestSampling:
    def test_p_zero_has_no_edges(self):
        u, v = sample_gnp_edges(20, 0.0, seed=0)
        assert u.size == 0 and v.size == 0

    def test_p_one_is_complete(self):
        u, v = sample_gnp_edges(10, 1.0, seed=0)
        assert u.size == 45

    def test_edges_are_valid_pairs(self):
        u, v = sample_gnp_edges(30, 0.3, seed=1)
        assert np.all(u < v)
        assert u.max() < 30

    def test_reproducible(self):
        a = sample_gnp_edges(25, 0.2, seed=9)
        b = sample_gnp_edges(25, 0.2, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_edge_count_concentrates(self):
        n, p = 100, 0.1
        u, _ = sample_gnp_edges(n, p, seed=2)
        expected = p * n * (n - 1) / 2
        assert abs(u.size - expected) < 5 * math.sqrt(expected)

    def test_single_vertex(self):
        u, v = sample_gnp_edges(1, 0.5, seed=0)
        assert u.size == 0

    @pytest.mark.parametrize("n, p", [(2, 0.5), (40, 0.1), (256, 0.03)])
    def test_draw_filters_the_upper_triangle(self, n, p):
        # The kept pairs are the upper-triangle pairs whose uniform draw
        # falls under p, in row-major order, as int64 columns.
        u, v = sample_gnp_edges(n, p, seed=n)
        rows, cols = np.triu_indices(n, k=1)
        keep = np.random.default_rng(n).random(rows.size) < p
        for got, want in ((u, rows[keep]), (v, cols[keep])):
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert got.flags.writeable

    def test_draws_do_not_share_the_pair_columns(self):
        first, _ = sample_gnp_edges(30, 1.0, seed=0)
        first[:] = -1
        again, _ = sample_gnp_edges(30, 1.0, seed=0)
        assert np.array_equal(again, np.triu_indices(30, k=1)[0])


class TestConnectivity:
    def test_complete_graph_connected(self):
        u, v = sample_gnp_edges(12, 1.0, seed=0)
        assert is_gnp_connected(12, u, v)

    def test_empty_graph_disconnected(self):
        u, v = sample_gnp_edges(12, 0.0, seed=0)
        assert not is_gnp_connected(12, u, v)

    def test_single_vertex_connected(self):
        assert is_gnp_connected(1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_too_few_edges_short_circuit(self):
        u = np.asarray([0], dtype=np.int64)
        v = np.asarray([1], dtype=np.int64)
        assert not is_gnp_connected(5, u, v)

    def test_giant_component_fraction_bounds(self):
        u, v = sample_gnp_edges(50, 0.05, seed=3)
        fraction = giant_component_fraction(50, u, v)
        assert 1 / 50 <= fraction <= 1.0

    def test_giant_fraction_of_complete_graph_is_one(self):
        u, v = sample_gnp_edges(20, 1.0, seed=0)
        assert giant_component_fraction(20, u, v) == 1.0


class TestThreshold:
    def test_critical_probability_formula(self):
        assert critical_probability(100) == pytest.approx(math.log(100) / 100)
        assert critical_probability(1) == 0.0

    def test_connectivity_probability_monotone_in_p(self):
        n = 80
        low = connectivity_probability(n, 0.3 * critical_probability(n), trials=30, seed=0)
        high = connectivity_probability(n, 3.0 * critical_probability(n), trials=30, seed=1)
        assert high > low

    def test_subcritical_mostly_disconnected(self):
        n = 128
        probability = connectivity_probability(
            n, 0.3 * critical_probability(n), trials=30, seed=2
        )
        assert probability <= 0.2

    def test_supercritical_mostly_connected(self):
        n = 128
        probability = connectivity_probability(
            n, 3.0 * critical_probability(n), trials=30, seed=3
        )
        assert probability >= 0.8

    def test_threshold_curve_structure(self):
        curve = connectivity_threshold_curve(
            64, multipliers=(0.5, 1.0, 2.0), trials=10, seed=4
        )
        assert [row["multiplier"] for row in curve] == [0.5, 1.0, 2.0]
        assert all(0.0 <= row["probability"] <= 1.0 for row in curve)
        assert all(row["p"] <= 1.0 for row in curve)
