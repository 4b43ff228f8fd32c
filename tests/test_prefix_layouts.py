"""Layouts built through a label bound, and the sweeps that grow them.

``build_timearc_csr(network, through)`` and ``build_reverse_timearc_csr(
network, through)`` lay out only the arcs whose (mirrored) label is at most
``through``.  Such a *prefix* must equal the first groups of the whole
layout in every column and dtype, and the forward one the layout of
``network.restricted_to_max_label(through)``, on one-label networks (whose
arcs the graph shares) and multi-label ones, directed and undirected, with
8- and 16-bit vertex ids and label keys, and for bounds below the first
label, mid-span, at the last label and beyond it.

A sweep starts from a prefix and grows the network's cached layout when it
runs past the bound (``repro.core.journeys._sweep``).  However many times it
grows, every output (``reached``, the staged arrivals, ``settled``, ``last``)
and every count (groups scanned, exits) must equal the whole layout's sweep
and the scalar references of ``tests/oracles.py``.  The tests shrink
``PREFIX_ARCS`` so that networks small enough for the references take
prefixes at all.  Two threads growing one network's layout must never leave
a shorter one cached.
"""

from __future__ import annotations

import pickle
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    NEVER,
    UNREACHABLE,
    NetworkAnalysis,
    StaticGraph,
    TemporalGraph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    normalized_urtn,
    path_graph,
    star_graph,
    telemetry,
    uniform_random_labels,
)
from repro.core import journeys
from repro.core.blocked_sweeps import blocked_sweep_summary
from repro.core.journeys import _sweep
from repro.core.reverse_timearc_csr import build_reverse_timearc_csr
from repro.core.timearc_csr import build_timearc_csr
from oracles import (
    assert_layout_matches,
    earliest_arrival_times_reference,
    latest_departure_times_reference,
)

# --------------------------------------------------------------------- #
# layouts through a bound
# --------------------------------------------------------------------- #


def _shifted_labels() -> TemporalGraph:
    """Labels 5 … 14 of lifetime 20, so bounds below the first label exist in
    both directions (mirrored, the labels are 7 … 16)."""
    graph = complete_graph(6, directed=True)
    rng = np.random.default_rng(11)
    return TemporalGraph.from_label_matrix(
        graph, rng.integers(5, 15, size=(graph.m, 2)), lifetime=20
    )


#: id → network builder: one-label (shared arcs) and multi-label networks,
#: directed and undirected, 16-bit vertex ids and label keys, and no
#: vertices, one vertex and no edges.
LAYOUT_NETWORKS = {
    "one-label-directed": lambda: normalized_urtn(complete_graph(12, directed=True), seed=1),
    "one-label-undirected": lambda: normalized_urtn(complete_graph(12), seed=2),
    "multi-label-directed": lambda: uniform_random_labels(
        complete_graph(9, directed=True), lifetime=20, labels_per_edge=3, seed=3
    ),
    "multi-label-undirected": lambda: uniform_random_labels(
        grid_graph(4, 5), lifetime=15, labels_per_edge=2, seed=4
    ),
    "shifted-labels": _shifted_labels,
    "wide-ids-and-labels": lambda: uniform_random_labels(
        path_graph(300), lifetime=1000, labels_per_edge=2, seed=5
    ),
    "no-vertices": lambda: TemporalGraph(StaticGraph(0, []), []),
    "one-vertex": lambda: TemporalGraph(StaticGraph(1, []), []),
    "no-edges": lambda: TemporalGraph(StaticGraph(4, []), []),
}

BUILDERS = {"forward": build_timearc_csr, "reverse": build_reverse_timearc_csr}


def _bounds(layout) -> dict[str, int]:
    """Bounds below the first label, mid-span, at the last label and beyond it."""
    labels = layout.labels.tolist() or [1]
    return {
        "below": labels[0] - 1,
        "mid": labels[len(labels) // 2],
        "between": labels[len(labels) // 2] + (labels[-1] > labels[len(labels) // 2]),
        "last": labels[-1],
        "beyond": labels[-1] + 3,
    }


def _first_groups(layout, groups: int) -> SimpleNamespace:
    """The columns of ``layout``'s first ``groups`` label groups."""
    arcs = int(layout.arc_offsets[groups])
    heads = int(layout.head_offsets[groups])
    return SimpleNamespace(
        n=layout.n,
        lifetime=layout.lifetime,
        labels=layout.labels[:groups],
        arc_offsets=layout.arc_offsets[: groups + 1],
        tails=layout.tails[:arcs],
        heads=layout.heads[:arcs],
        arc_order=layout.arc_order[:arcs],
        head_values=layout.head_values[:heads],
        head_offsets=layout.head_offsets[: groups + 1],
        head_starts=layout.head_starts[:heads],
    )


class TestLayoutsThroughABound:
    def test_key_widths_are_covered(self):
        wide = LAYOUT_NETWORKS["wide-ids-and-labels"]()
        layout = build_timearc_csr(wide)
        assert layout.narrow_heads.dtype == np.uint16
        assert int(layout.labels[-1] - layout.labels[0]) > 255
        assert LAYOUT_NETWORKS["one-label-directed"]()._shared_arcs is not None

    @pytest.mark.parametrize("direction", sorted(BUILDERS))
    @pytest.mark.parametrize("network_id", sorted(LAYOUT_NETWORKS))
    def test_prefix_is_the_whole_layouts_first_groups(self, network_id, direction):
        network = LAYOUT_NETWORKS[network_id]()
        build = BUILDERS[direction]
        whole = build(network)
        assert whole.through is None
        for kind, through in _bounds(whole).items():
            prefix = build(network, through)
            groups = int(np.searchsorted(whole.labels, through, side="right"))
            assert_layout_matches(prefix, _first_groups(whole, groups))
            assert prefix.narrow_heads.dtype == whole.narrow_heads.dtype, kind
            if groups == whole.num_groups:
                assert prefix.through is None, kind
            else:
                assert prefix.through == through, kind
                assert prefix.num_arcs < whole.num_arcs, kind

    @pytest.mark.parametrize("network_id", sorted(LAYOUT_NETWORKS))
    def test_forward_prefix_is_the_restricted_networks_layout(self, network_id):
        network = LAYOUT_NETWORKS[network_id]()
        for kind, through in _bounds(build_timearc_csr(network)).items():
            if through < 1:
                continue
            restricted = network.restricted_to_max_label(through)
            expected = build_timearc_csr(restricted)
            # The restricted network's arc i is the i-th arc labelled at most
            # ``through`` of the whole network.
            kept = np.flatnonzero(network.time_arc_labels <= through)
            columns = vars(_first_groups(expected, expected.num_groups))
            columns["arc_order"] = kept[expected.arc_order]
            assert_layout_matches(
                build_timearc_csr(network, through), SimpleNamespace(**columns)
            )

    def test_a_bound_that_keeps_every_arc_records_the_whole_layout(self):
        network = _shifted_labels()
        assert build_timearc_csr(network, 14).through is None
        assert build_timearc_csr(network, 13).through == 13
        # Mirrored, the labels 5 … 14 are 16 … 7.
        assert build_reverse_timearc_csr(network, 16).through is None
        assert build_reverse_timearc_csr(network, 15).through == 15


class TestLayoutBound:
    @pytest.mark.parametrize("direction", sorted(BUILDERS))
    @pytest.mark.parametrize(
        "network_id", ["one-label-directed", "one-label-undirected", "multi-label-directed"]
    )
    def test_least_bound_holding_the_arcs(self, network_id, direction):
        network = LAYOUT_NETWORKS[network_id]()
        reverse = direction == "reverse"
        whole = BUILDERS[direction](network)
        for arcs in (1, 2, whole.num_arcs // 3, whole.num_arcs - 1, whole.num_arcs):
            through = network._layout_bound(reverse, arcs)
            if through is None:
                # Only the whole layout holds that many arcs (up to an
                # undirected edge's second arc).
                assert 2 * arcs > whole.num_arcs - 2
                continue
            held = int(np.searchsorted(whole.labels, through, side="right"))
            assert whole.arc_offsets[held] >= arcs
            assert whole.arc_offsets[held - 1] < arcs


# --------------------------------------------------------------------- #
# sweeps over growing layouts
# --------------------------------------------------------------------- #


SWEEP_POOL = {
    "clique-directed": normalized_urtn(complete_graph(7, directed=True), seed=0),
    "clique-undirected": normalized_urtn(complete_graph(6), seed=1),
    "er-r3": uniform_random_labels(
        erdos_renyi_graph(9, 0.35, directed=True, seed=2),
        lifetime=14,
        labels_per_edge=3,
        seed=3,
    ),
    "star": normalized_urtn(star_graph(8), seed=4),
    "path-r2": uniform_random_labels(path_graph(7), lifetime=10, labels_per_edge=2, seed=5),
    # More than 255 label groups, and no arc into vertex 0, so sweeps from
    # the other vertices never saturate: the first prefix stages arrivals
    # in uint8, the grown layout in uint16.
    "many-groups": uniform_random_labels(
        StaticGraph(6, [(u, v) for u in range(6) for v in range(1, 6) if u != v], directed=True),
        lifetime=700,
        labels_per_edge=30,
        seed=7,
    ),
}

#: The outputs one sweep asks for.
MODES = {
    "arrivals": dict(arrivals=True),
    "reach": dict(arrivals=False),
    "settles": dict(arrivals=False, settles=True),
    "settles-arrivals": dict(arrivals=True, settles=True),
}


def _fresh(network: TemporalGraph) -> TemporalGraph:
    """A copy with no cached layout."""
    return pickle.loads(pickle.dumps(network))


def _starts(network: TemporalGraph, reverse: bool) -> list[int]:
    """Sweep starts inside, at and past the first prefix's bound, and past every label.

    Every start up to ``a + 2`` on a short lifetime; on a long one the
    neighbours of the bound, the middle and the ends.  A reverse start is the
    mirrored deadline ``a − D``.
    """
    a = network.lifetime
    if a <= 20:
        return list(range(-2, a + 1)) if reverse else list(range(a + 3))
    bound = network._layout_bound(reverse, max(network.num_time_arcs // 8, 1))
    picks = {0, a // 2, a, bound - 1, bound, bound + 1}
    picks |= {-2, -1} if reverse else {a + 1, a + 2}
    return sorted(picks)


def _recorded_sweep(network, columns, start, reverse, mode):
    with telemetry.session() as rec:
        swept = _sweep(network, columns, start, reverse=reverse, **MODES[mode])
    prefix = "kernel.reverse" if reverse else "kernel.forward"
    direction = "reverse" if reverse else "forward"
    counts = {
        name: rec.counters.get(f"{prefix}.{name}", 0)
        for name in ("groups_scanned", "saturation_exits", "deficient_exits")
    }
    return swept, counts, rec.counters.get(f"csr.builds.{direction}", 0)


def _assert_same_sweep(grown, whole):
    """``grown`` (a sweep over a growing layout) equals ``whole``'s outputs."""
    np.testing.assert_array_equal(grown.reached, whole.reached)
    for name in ("arrivals", "last"):
        a, b = getattr(grown, name), getattr(whole, name)
        assert (a is None) == (b is None), name
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=name)
    if whole.settled is not None:
        # A sweep that saturated on a prefix reports that prefix's groups,
        # the whole layout's first groups; the rest settle nothing.
        size = grown.settled.size
        np.testing.assert_array_equal(grown.settled, whole.settled[:size])
        assert not whole.settled[size:].any()
        np.testing.assert_array_equal(grown.labels, whole.labels[:size])


def _reference_rows(network, columns, time, reverse):
    """Each column's arrivals (forward) or mirrored departures (reverse)."""
    if reverse:
        a = network.lifetime
        rows = [latest_departure_times_reference(network, t, deadline=time) for t in columns]
        state = np.stack(rows).T
        unreached = state == NEVER
        state = a + 1 - state
        state[unreached] = UNREACHABLE
        return state
    rows = [earliest_arrival_times_reference(network, s, start_time=time) for s in columns]
    return np.stack(rows).T


@pytest.fixture
def tiny_prefixes(monkeypatch):
    """A first prefix of an eighth of the arcs, however few they are."""
    monkeypatch.setattr(journeys, "PREFIX_ARCS", 1)


class TestGrowingSweeps:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("network_id", sorted(SWEEP_POOL))
    def test_every_output_equals_the_whole_layouts_sweep(
        self, network_id, direction, mode, monkeypatch
    ):
        network = SWEEP_POOL[network_id]
        reverse = direction == "reverse"
        n, a = network.n, network.lifetime
        whole_network = _fresh(network)
        whole_network._layout(reverse)
        growths = set()
        for start in _starts(network, reverse):
            time = a - start if reverse else start
            for columns in (None, (0,), (n - 1,)):
                monkeypatch.setattr(journeys, "PREFIX_ARCS", 1)
                grown, counts, builds = _recorded_sweep(
                    _fresh(network), columns, start, reverse, mode
                )
                whole, whole_counts, _ = _recorded_sweep(
                    whole_network, columns, start, reverse, mode
                )
                assert counts == whole_counts, (time, columns)
                _assert_same_sweep(grown, whole)
                growths.add(builds - 1)
                if grown.arrivals is not None:
                    targets = range(n) if columns is None else columns
                    np.testing.assert_array_equal(
                        grown.arrivals, _reference_rows(network, targets, time, reverse)
                    )
        assert max(growths) >= 1

    def test_staged_arrivals_in_both_widths(self, tiny_prefixes):
        network = _fresh(SWEEP_POOL["many-groups"])
        first = network._layout(False, network.num_time_arcs // 8)
        assert first.num_groups <= 255 < build_timearc_csr(network).num_groups
        network = _fresh(network)
        with telemetry.session() as rec:
            arrivals = journeys.earliest_arrival_matrix(network)
        assert rec.counters["csr.builds.forward"] > 1
        assert network._timearc_csr.num_groups > 255
        expected = np.stack(
            [earliest_arrival_times_reference(network, s) for s in range(network.n)]
        )
        np.testing.assert_array_equal(arrivals, expected)

    def test_yes_no_tests_read_the_whole_layout(self, tiny_prefixes):
        network = _fresh(SWEEP_POOL["er-r3"])
        with telemetry.session() as rec:
            NetworkAnalysis(network).preserves_reachability()
        assert rec.counters["csr.builds.forward"] == 1
        assert rec.counters["csr.arcs.forward"] == network.num_time_arcs

    def _hub(self) -> TemporalGraph:
        """Vertex 0 reaches every leaf at label 1; the leaves' 56 arcs among
        themselves carry labels 2 … 9, and no arc enters 0."""
        leaves = range(1, 9)
        pairs = [(0, v) for v in leaves] + [(u, v) for u in leaves for v in leaves if u != v]
        graph = StaticGraph(9, pairs, directed=True)
        rng = np.random.default_rng(8)
        labels = [[1] if u == 0 else [int(rng.integers(2, 10))] for u, _ in graph.edge_pairs]
        return TemporalGraph(graph, labels, lifetime=9)

    @pytest.mark.parametrize(
        "source, prefix_arcs, growths",
        [
            # Saturates in the first group, which is the first prefix.
            (0, 1, 0),
            # Never saturates (no journey reaches 0): it grows until whole,
            # from 8 arcs past 32 to 64, or from 17 straight to 64.
            (1, 1, 2),
            (1, 17, 1),
        ],
    )
    def test_growths(self, monkeypatch, source, prefix_arcs, growths):
        monkeypatch.setattr(journeys, "PREFIX_ARCS", prefix_arcs)
        network = self._hub()
        assert network.num_time_arcs == 64
        with telemetry.session() as rec:
            arrivals = journeys.earliest_arrival_times(network, source)
        np.testing.assert_array_equal(
            arrivals, earliest_arrival_times_reference(network, source)
        )
        assert rec.counters["csr.builds.forward"] == growths + 1
        layout = network._timearc_csr
        assert (layout.through is None) == (growths > 0)
        saturated = rec.counters.get("kernel.forward.saturation_exits", 0)
        assert saturated == (source == 0)
        assert rec.counters["kernel.forward.groups_scanned"] == (1 if source == 0 else 9)

    def test_start_past_the_first_prefix(self, tiny_prefixes):
        network = self._hub()
        first = network._layout(False, 8)
        assert first.through == 1
        network = self._hub()
        with telemetry.session() as rec:
            arrivals = journeys.earliest_arrival_times(network, 1, start_time=5)
        np.testing.assert_array_equal(
            arrivals, earliest_arrival_times_reference(network, 1, start_time=5)
        )
        assert rec.counters["kernel.forward.groups_scanned"] == 4

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_one_tile_blocked_summary_grows(self, tiny_prefixes, direction):
        network = SWEEP_POOL["clique-directed"]
        grown = blocked_sweep_summary(_fresh(network), direction=direction)
        whole_network = _fresh(network)
        whole_network._layout(direction == "reverse")
        whole = blocked_sweep_summary(whole_network, direction=direction)
        assert grown.summary == whole.summary
        np.testing.assert_array_equal(grown.eccentricities, whole.eccentricities)
        np.testing.assert_array_equal(grown.reach_counts, whole.reach_counts)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_many_tiles_build_the_whole_layout_once(self, tiny_prefixes, direction):
        network = _fresh(SWEEP_POOL["clique-directed"])
        with telemetry.session() as rec:
            blocked_sweep_summary(network, tile_size=2, direction=direction)
        assert rec.counters[f"csr.builds.{direction}"] == 1
        assert rec.counters[f"csr.arcs.{direction}"] == network.num_time_arcs


class TestThreads:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_growing_threads_never_leave_a_shorter_layout(self, direction):
        reverse = direction == "reverse"
        slot = "_reverse_timearc_csr" if reverse else "_timearc_csr"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(12):
                network = normalized_urtn(complete_graph(40, directed=True), seed=seed)
                total = network.num_time_arcs
                wanted = [total // 16, None, total // 4, total // 2, total // 8]
                barrier = threading.Barrier(len(wanted))

                def grow(arcs):
                    barrier.wait(timeout=10)
                    network._layout(reverse, arcs)

                threads = [threading.Thread(target=grow, args=(arcs,)) for arcs in wanted]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                cached = getattr(network, slot)
                assert cached.through is None and cached.num_arcs == total
        finally:
            sys.setswitchinterval(interval)

    def test_sweeps_that_grow_in_threads_agree(self, tiny_prefixes):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            network = _fresh(SWEEP_POOL["er-r3"])
            expected = np.stack(
                [earliest_arrival_times_reference(network, s) for s in range(network.n)]
            )
            results: dict[int, np.ndarray] = {}
            barrier = threading.Barrier(network.n)

            def run(source):
                barrier.wait(timeout=10)
                results[source] = journeys.earliest_arrival_times(network, source)

            threads = [threading.Thread(target=run, args=(s,)) for s in range(network.n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for source in range(network.n):
                np.testing.assert_array_equal(results[source], expected[source])
        finally:
            sys.setswitchinterval(interval)
