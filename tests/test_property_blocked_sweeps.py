"""Property-based tests (hypothesis) for the blocked-sweep accumulators.

The blocked engine's correctness rests on one algebraic property: folding
distance rows into :class:`repro.core.blocked_sweeps.BlockedSummaryAccumulator`
is **exactly** associative and commutative — any partition of the rows into
tiles, absorbed in any order, must yield the same accumulator state bit for
bit (integer moments, reachability counts, diameter/radius).  These tests
drive that property over random distance matrices, random partitions and
random tile orders.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.blocked_sweeps import (
    BlockedSummaryAccumulator,
    ExactDistanceMoments,
    summary_of_distance_matrix,
)
from repro.types import UNREACHABLE


@st.composite
def distance_matrices(draw, max_n: int = 10, max_label: int = 40):
    """A random square int64 distance matrix with production conventions:
    zero diagonal, labels in ``[1, max_label]``, UNREACHABLE holes."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rows = draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=1, max_value=max_label),
                    st.just(int(UNREACHABLE)),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    matrix = np.array(rows, dtype=np.int64)
    np.fill_diagonal(matrix, 0)
    return matrix


@st.composite
def partitions(draw, n: int):
    """A random ordered partition of ``range(n)`` rows into contiguous tiles,
    then a random permutation of those tiles."""
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=4).map(
            lambda xs: sorted(set(x for x in xs if x < n))
        )
    )
    bounds = [0, *cuts, n]
    tiles = [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
        for i in range(len(bounds) - 1)
    ]
    order = draw(st.permutations(range(len(tiles))))
    return [tiles[i] for i in order]


def _absorb(matrix: np.ndarray, tiles) -> BlockedSummaryAccumulator:
    accumulator = BlockedSummaryAccumulator(matrix.shape[0])
    for rows in tiles:
        accumulator.add_tile(rows, matrix[rows])
    return accumulator


def assert_same_state(a: BlockedSummaryAccumulator, b: BlockedSummaryAccumulator):
    """Every piece of reduction state agrees exactly."""
    assert (a.n, a.rows, a.reachable_pairs) == (b.n, b.rows, b.reachable_pairs)
    assert a.moments == b.moments
    assert (a.diameter, a.radius) == (b.diameter, b.radius)
    np.testing.assert_array_equal(a.reach_counts, b.reach_counts)


@st.composite
def matrix_and_two_partitions(draw):
    matrix = draw(distance_matrices())
    n = matrix.shape[0]
    return matrix, draw(partitions(n)), draw(partitions(n))


@given(matrix_and_two_partitions())
@settings(max_examples=120, deadline=None)
def test_any_partition_any_order_same_state(case):
    """Two arbitrary partitions/orders of the same rows agree exactly, and
    both equal absorbing every row as one tile."""
    matrix, tiles_a, tiles_b = case
    a = _absorb(matrix, tiles_a)
    assert_same_state(a, _absorb(matrix, tiles_b))
    assert_same_state(a, _absorb(matrix, [np.arange(matrix.shape[0], dtype=np.int64)]))


@given(matrix_and_two_partitions())
@settings(max_examples=100, deadline=None)
def test_summary_matches_dense_reduction(case):
    """Whatever the partition, the streamed summary equals the dense one."""
    matrix, tiles, _ = case
    streamed = _absorb(matrix, tiles).summary()
    dense = summary_of_distance_matrix(matrix)
    assert streamed.diameter == dense.diameter
    assert streamed.radius == dense.radius
    assert streamed.reachable_fraction == dense.reachable_fraction
    if np.isnan(dense.average_distance):
        assert np.isnan(streamed.average_distance)
    else:
        assert streamed.average_distance == dense.average_distance


def _block(values):
    """``add_block``'s ``(count, Σδ, Σδ², min, max)`` of a list of ints."""
    if not values:
        return 0, 0, 0, None, None
    squares = sum(value * value for value in values)
    return len(values), sum(values), squares, min(values), max(values)


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=40),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_exact_moments_order_invariant(values, rng):
    """ExactDistanceMoments is insensitive to observation order and chunking,
    and equal states compare equal."""
    ordered = ExactDistanceMoments()
    ordered.add_block(*_block(values))
    shuffled_values = list(values)
    rng.shuffle(shuffled_values)
    shuffled = ExactDistanceMoments()
    index = 0
    while index < len(shuffled_values):
        step = rng.randint(1, 7)
        shuffled.add_block(*_block(shuffled_values[index : index + step]))
        index += step
    assert ordered == shuffled
    if values:
        assert ordered.mean == sum(values) / len(values)
        assert ordered.minimum == min(values)
        assert ordered.maximum == max(values)
