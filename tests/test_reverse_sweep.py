"""The reverse sweep engine, pinned by time-reversal duality.

Writing ``M(x) = L + 1 − x`` for a network with lifetime ``L``, a journey
``v → t`` with labels ``l_1 < … < l_k`` corresponds exactly to a journey
``t → v`` in the time-reversed network (arcs flipped, labels ``l → L+1−l``)
— so the latest-departure matrix of ``G`` must equal the mirrored
earliest-arrival matrix of ``reverse(G)`` **bit for bit**, with
``UNREACHABLE ↔ NEVER`` at the sentinels.  That identity pins the whole
reverse engine against the forward one, which is itself oracle-checked
(``tests/test_oracle_crosscheck.py``); the rest of this module covers the
reverse CSR layout (the forward layout of the flipped arcs with mirrored
labels), deadline semantics and degenerate networks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    NEVER,
    UNREACHABLE,
    complete_graph,
    earliest_arrival_matrix,
    erdos_renyi_graph,
    hypercube_graph,
    latest_departure,
    latest_departure_matrix,
    latest_departure_times,
    normalized_urtn,
    reverse_reachable_set,
    star_graph,
    uniform_random_labels,
)
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import TimeArcCSR, build_timearc_csr_from_arrays

from oracles import latest_departure_times_reference


def _family_pool():
    """The four families of the acceptance grid, several seeds each."""
    pool = {}
    for seed in range(4):
        pool[f"complete-{seed}"] = normalized_urtn(
            complete_graph(12, directed=True), seed=seed
        )
        pool[f"er-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(16, 0.3, directed=True, seed=seed),
            lifetime=24,
            labels_per_edge=2,
            seed=seed + 50,
        )
        pool[f"star-{seed}"] = normalized_urtn(star_graph(11), seed=seed)
        pool[f"hypercube-{seed}"] = normalized_urtn(hypercube_graph(3), seed=seed)
    return pool


_POOL = _family_pool()


@pytest.fixture(params=sorted(_POOL), ids=sorted(_POOL))
def network(request):
    return _POOL[request.param]


def _mirror(arrivals: np.ndarray, lifetime: int) -> np.ndarray:
    """Map earliest arrivals of the reversed network to latest departures."""
    return np.where(arrivals == UNREACHABLE, NEVER, lifetime + 1 - arrivals)


class TestTimeReversalDuality:
    def test_matrix_duality_bit_identical(self, network):
        reversed_net = network.time_reversed()
        expected = _mirror(
            earliest_arrival_matrix(reversed_net), network.lifetime
        )
        np.testing.assert_array_equal(latest_departure_matrix(network), expected)

    def test_single_target_matches_matrix_row(self, network):
        matrix = latest_departure_matrix(network)
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times(network, target), matrix[target]
            )

    def test_reference_implementation_agrees(self, network):
        for target in range(network.n):
            np.testing.assert_array_equal(
                latest_departure_times(network, target),
                latest_departure_times_reference(network, target),
            )

    def test_reverse_reachability_is_forward_transposed(self, network):
        forward = earliest_arrival_matrix(network) < UNREACHABLE
        backward = latest_departure_matrix(network) > NEVER
        np.testing.assert_array_equal(backward, forward.T)
        for target in range(network.n):
            np.testing.assert_array_equal(
                reverse_reachable_set(network, target),
                np.flatnonzero(forward[:, target]),
            )

    def test_deadline_duality_bit_identical(self, network):
        """Deadline ``D`` mirrors to ``start_time = L − D`` on ``reverse(G)``."""
        reversed_net = network.time_reversed()
        lifetime = network.lifetime
        for deadline in (0, lifetime // 2, lifetime - 1):
            expected = _mirror(
                earliest_arrival_matrix(reversed_net, start_time=lifetime - deadline),
                lifetime,
            )
            np.testing.assert_array_equal(
                latest_departure_matrix(network, deadline=deadline), expected
            )

    def test_time_reversal_is_an_involution(self, network):
        twice = network.time_reversed().time_reversed()
        assert twice.n == network.n
        assert twice.lifetime == network.lifetime
        np.testing.assert_array_equal(
            earliest_arrival_matrix(twice), earliest_arrival_matrix(network)
        )
        np.testing.assert_array_equal(
            latest_departure_matrix(twice), latest_departure_matrix(network)
        )

    def test_time_reversed_preserves_label_multiset(self, network):
        original = np.sort(network.time_arc_labels)
        mapped = np.sort(network.lifetime + 1 - network.time_reversed().time_arc_labels)
        np.testing.assert_array_equal(mapped, original)


class TestDeadlineSemantics:
    def test_target_reports_deadline_plus_one(self, network):
        deadline = max(1, network.lifetime // 2)
        depart = latest_departure_times(network, 0, deadline=deadline)
        assert depart[0] == deadline + 1
        off_target = np.delete(depart, 0)
        assert (off_target <= deadline).all()

    def test_tighter_deadline_never_improves(self, network):
        full = latest_departure_times(network, 0)
        tight = latest_departure_times(network, 0, deadline=network.lifetime // 2)
        assert (tight[1:] <= full[1:]).all()

    def test_deadline_beyond_lifetime_only_moves_the_targets(self, network):
        """No label exceeds the lifetime, so a later deadline changes only the
        targets' own ``deadline + 1`` entries (the mirrored start is negative)."""
        full = latest_departure_matrix(network)
        for deadline in (network.lifetime + 1, network.lifetime + 7):
            expected = full.copy()
            np.fill_diagonal(expected, deadline + 1)
            np.testing.assert_array_equal(
                latest_departure_matrix(network, deadline=deadline), expected
            )
            for target in range(network.n):
                np.testing.assert_array_equal(
                    latest_departure_times(network, target, deadline=deadline),
                    expected[target],
                )

    def test_deadline_zero_isolates_the_target(self, network):
        depart = latest_departure_times(network, 0, deadline=0)
        assert depart[0] == 1
        assert (np.delete(depart, 0) == NEVER).all()

    def test_scalar_query_matches_vector(self, network):
        vector = latest_departure_times(network, 1)
        for source in range(network.n):
            assert latest_departure(network, source, 1) == vector[source]

    def test_negative_deadline_rejected(self, network):
        with pytest.raises(Exception):
            latest_departure_times(network, 0, deadline=-1)


class TestReverseCsrLayout:
    """The reverse layout is the forward layout of the time-reversed arcs."""

    def test_equals_forward_layout_of_mirrored_arcs(self, network):
        lifetime = network.lifetime
        expected = build_timearc_csr_from_arrays(
            network.n,
            lifetime,
            network.time_arc_heads,
            network.time_arc_tails,
            lifetime + 1 - network.time_arc_labels,
            network.time_arc_edge_index,
        )
        csr = network.reverse_timearc_csr
        assert isinstance(csr, TimeArcCSR)
        for field in dataclasses.fields(TimeArcCSR):
            actual, wanted = getattr(csr, field.name), getattr(expected, field.name)
            if isinstance(wanted, np.ndarray):
                np.testing.assert_array_equal(actual, wanted, err_msg=field.name)
            else:
                assert actual == wanted, field.name

    def test_groups_hold_flipped_arcs_with_mirrored_labels(self, network):
        csr = network.reverse_timearc_csr
        assert csr.num_arcs == network.num_time_arcs
        np.testing.assert_array_equal(np.sort(csr.arc_order), np.arange(csr.num_arcs))
        for group in range(csr.num_groups):
            arc_slice = csr.group_slice(group)
            original = csr.arc_order[arc_slice]
            np.testing.assert_array_equal(
                csr.labels[group],
                network.lifetime + 1 - network.time_arc_labels[original],
            )
            np.testing.assert_array_equal(
                csr.tails[arc_slice], network.time_arc_heads[original]
            )
            np.testing.assert_array_equal(
                csr.heads[arc_slice], network.time_arc_tails[original]
            )
            np.testing.assert_array_equal(
                csr.edge_index[arc_slice], network.time_arc_edge_index[original]
            )

    def test_layout_is_cached_and_immutable(self, network):
        csr = network.reverse_timearc_csr
        assert network.reverse_timearc_csr is csr
        with pytest.raises(ValueError):
            csr.tails[0] = 0


class TestDegenerateNetworks:
    def test_single_vertex(self):
        network = TemporalGraph(complete_graph(1), [])
        depart = latest_departure_times(network, 0)
        assert depart.tolist() == [network.lifetime + 1]
        assert latest_departure_matrix(network).shape == (1, 1)

    def test_no_labels(self):
        graph = complete_graph(4)
        network = TemporalGraph(graph, [() for _ in range(graph.m)], lifetime=5)
        depart = latest_departure_times(network, 2)
        assert depart[2] == 6
        assert (np.delete(depart, 2) == NEVER).all()

    def test_empty_target_list(self):
        network = normalized_urtn(complete_graph(5, directed=True), seed=0)
        out = latest_departure_matrix(network, [])
        assert out.shape == (0, 5)
