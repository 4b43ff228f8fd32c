"""Sparse label groups swept through the layout's gather plan, and the ``last`` fold.

Where almost every head of a label group has one arc,
:attr:`~repro.core.timearc_csr.TimeArcCSR.gather_plan` lets the packed
sweep gather one arc per head and OR in the few other arcs with
``np.bitwise_or.at``, instead of gathering every arc and OR-reducing each
head's run with ``np.bitwise_or.reduceat``.  Three concerns are pinned here:

* **the gathered form** — on layouts that take the plan (grids and a sparse
  ER digraph with at least 64 heads per group, a built network with runs of
  three or more arcs, and a stack of copies), every output of a sweep with
  the plan equals the same sweep with the plan forced to ``None``, in both
  directions: ``reached``, arrivals staged in ``uint8`` and ``uint16``,
  ``settled``, ``last``, the ``required`` deficient exit and the exit
  counts; where the size allows, the arrivals also equal the scalar
  references of ``tests/oracles.py``;
* **the rule** — the plan exists exactly when a layout has at least 64
  heads per group and at most one extra arc per 8 heads: the benchmark
  grid's two layouts take it, directed K256, E5's star stack and E2's K64
  at lifetime 1 024 do not, and layouts on either side of both thresholds
  fall where the counts say; its derivation is recorded as ``csr.plans``;
* **the ``last`` fold** — the packed sweep collects each group's settled
  columns and sets ``last`` once, after the sweep; ``last`` must equal what
  the sweep's arrivals imply at a saturation exit, a ``required`` exit and
  the end of the groups, from a late start time, at widths across the
  64-bit word boundaries.
"""

from __future__ import annotations

import contextlib
import re
import zlib

import numpy as np
import pytest

from oracles import earliest_arrival_times_reference, latest_departure_times_reference
from repro import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    normalized_urtn,
    star_graph,
    telemetry,
    uniform_random_labels,
)
from repro.core.blocked_sweeps import blocked_sweep_summary
from repro.core.journeys import _sweep, earliest_arrival_matrix
from repro.core.labeling import uniform_label_draws
from repro.core.reverse_journeys import latest_departure_matrix
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import TimeArcCSR, build_stack_timearc_csr
from repro.experiments.registry import main
from repro.graphs.static_graph import StaticGraph
from repro.types import UNREACHABLE


def _arcs_network(n: int, lifetime: int, runs: list[list[int]], seed: int) -> TemporalGraph:
    """A digraph whose label ``g + 1`` group has one head run per entry of ``runs[g]``.

    A run of length ``k`` is ``k`` arcs into one random head, all carrying
    the group's label.  The heads of a group are distinct, so the group has
    ``len(runs[g])`` heads and ``sum(runs[g]) − len(runs[g])`` extra arcs;
    its tails are distinct too, so each head of the time-reversed group has
    one arc.
    """
    rng = np.random.default_rng(seed)
    labels: dict[tuple[int, int], set[int]] = {}
    for label, lengths in enumerate(runs, start=1):
        heads = np.repeat(rng.choice(n, size=len(lengths), replace=False), lengths)
        tails = rng.choice(n, size=heads.size, replace=False)
        while np.any(tails == heads):
            tails = rng.choice(n, size=heads.size, replace=False)
        for tail, head in zip(tails.tolist(), heads.tolist()):
            labels.setdefault((tail, head), set()).add(label)
    graph = StaticGraph(n, sorted(labels), directed=True)
    return TemporalGraph(
        graph, [sorted(labels[arc]) for arc in graph.arcs()], lifetime=lifetime
    )


def _runs_network() -> TemporalGraph:
    """Four groups of 150 heads: runs of 2 to 6 arcs in three, none in the third."""
    singles = [1] * 150
    runs = [
        [5, 4, 3, 2, 2] + singles[5:],
        [3, 3] + singles[2:],
        singles,
        [6] + singles[1:],
    ]
    return _arcs_network(400, 4, runs, seed=7)


#: Networks whose forward and reverse layouts both take the gather plan.
GATHERED = {
    "grid-30x30-a16": lambda: uniform_random_labels(grid_graph(30, 30), lifetime=16, seed=0),
    "grid-100x100-a64": lambda: uniform_random_labels(
        grid_graph(100, 100), lifetime=64, seed=42
    ),
    "er-2000-directed": lambda: uniform_random_labels(
        erdos_renyi_graph(2000, 0.001, directed=True, seed=1), lifetime=32, seed=2
    ),
    "runs-of-2-to-6": _runs_network,
}

#: The instances the scalar references check column by column.
ORACLE_CHECKED = ("grid-30x30-a16", "er-2000-directed", "runs-of-2-to-6")


def _layout(network: TemporalGraph, direction: str) -> TimeArcCSR:
    return network.reverse_timearc_csr if direction == "reverse" else network.timearc_csr


@contextlib.contextmanager
def _without_plan(monkeypatch):
    """Every layout's gather plan reads ``None`` inside the block."""
    with monkeypatch.context() as patch:
        patch.setattr(TimeArcCSR, "gather_plan", property(lambda self: None))
        yield


def _run(network, direction, rows, start, **asked):
    """One ``_sweep`` and its ``(groups_scanned, saturation, deficient)`` exits."""
    reverse = direction == "reverse"
    with telemetry.session() as recorder:
        swept = _sweep(network, rows, start, reverse=reverse, **asked)
    counters = recorder.counters
    prefix = f"kernel.{direction}"
    return swept, (
        counters[f"{prefix}.groups_scanned"],
        counters.get(f"{prefix}.saturation_exits", 0),
        counters.get(f"{prefix}.deficient_exits", 0),
    )


def _both_forms(monkeypatch, network, direction, rows, start, **asked):
    """The sweep with the gather plan, then the same sweep without it."""
    gathered = _run(network, direction, rows, start, **asked)
    with _without_plan(monkeypatch):
        reduced = _run(network, direction, rows, start, **asked)
    return gathered, reduced


def _assert_same(gathered, reduced):
    (swept, exits), (reference, reference_exits) = gathered, reduced
    assert exits == reference_exits
    for name in swept._fields:
        got, expected = getattr(swept, name), getattr(reference, name)
        if expected is None:
            assert got is None, name
        else:
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)


def _packed(bits: np.ndarray) -> np.ndarray:
    """``(n, width)`` booleans as ``(n, ⌈width/64⌉)`` ``uint64`` rows, in the ``reached`` layout."""
    n, width = bits.shape
    rows = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    packed = np.packbits(bits, axis=1)
    rows[:, : packed.shape[1]] = packed
    return rows.view(np.uint64)


def _columns(network, width, salt):
    rng = np.random.default_rng(zlib.crc32(salt.encode()))
    return np.sort(rng.choice(network.n, size=width, replace=False))


# --------------------------------------------------------------------- #
# the gathered form against the segment reduction
# --------------------------------------------------------------------- #
class TestGatheredForm:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(GATHERED))
    def test_layouts_take_the_plan(self, instance_id, direction):
        layout = _layout(GATHERED[instance_id](), direction)
        plan = layout.gather_plan
        assert plan is not None
        assert plan.run_tails.size == layout.head_values.size
        assert plan.extra_tails.size == layout.num_arcs - layout.head_values.size
        assert plan.extra_offsets[-1] == plan.extra_tails.size

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(GATHERED))
    def test_every_output_matches_the_segment_reduction(
        self, instance_id, direction, monkeypatch
    ):
        network = GATHERED[instance_id]()
        lifetime = network.lifetime
        for width in (1, 64, 129):
            for start in (0, lifetime // 3):
                rows = _columns(network, width, f"{instance_id}/{direction}/{width}")
                for asked in (
                    {"settles": True},
                    {"arrivals": False},
                    {"arrivals": False, "settles": True},
                ):
                    _assert_same(
                        *_both_forms(monkeypatch, network, direction, rows, start, **asked)
                    )

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", ORACLE_CHECKED)
    def test_arrivals_match_the_scalar_references(self, instance_id, direction):
        network = GATHERED[instance_id]()
        assert _layout(network, direction).gather_plan is not None
        rows = _columns(network, 5, f"oracle/{instance_id}/{direction}")
        time = network.lifetime // 4
        if direction == "forward":
            matrix = earliest_arrival_matrix(network, rows, start_time=time)
            reference = earliest_arrival_times_reference
            expected = [reference(network, v, start_time=time) for v in rows.tolist()]
        else:
            matrix = latest_departure_matrix(network, rows, deadline=time)
            reference = latest_departure_times_reference
            expected = [reference(network, v, deadline=time) for v in rows.tolist()]
        np.testing.assert_array_equal(matrix, np.array(expected))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_more_than_255_groups_stage_in_uint16(self, direction, monkeypatch):
        network = uniform_random_labels(grid_graph(100, 100), lifetime=300, seed=0)
        layout = _layout(network, direction)
        assert layout.num_groups > 255 and layout.gather_plan is not None
        rows = _columns(network, 65, f"uint16/{direction}")
        gathered, reduced = _both_forms(
            monkeypatch, network, direction, rows, 0, settles=True
        )
        _assert_same(gathered, reduced)
        assert np.count_nonzero(gathered[0].arrivals < UNREACHABLE) > rows.size

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(GATHERED))
    def test_required_exits_alike(self, instance_id, direction, monkeypatch):
        network = GATHERED[instance_id]()
        rows = _columns(network, 64, f"required/{instance_id}/{direction}")
        full, _ = _run(network, direction, rows, 0, arrivals=False)
        # Every vertex from every column: the first final row short of it
        # stops the sweep.  The final rows themselves: no row falls short.
        # One bit more at one vertex: the sweep stops at its last in-arc.
        owed = full.reached.copy()
        vertex = int(np.argmin(np.bitwise_count(owed).sum(axis=1)))
        owed[vertex] |= _packed(np.ones((1, rows.size), dtype=bool))[0]
        for required, stop in (
            (_packed(np.ones((network.n, rows.size), dtype=bool)), 1),
            (full.reached, 0),
            (owed, 1),
        ):
            gathered, reduced = _both_forms(
                monkeypatch, network, direction, rows, 0, settles=True, required=required
            )
            _assert_same(gathered, reduced)
            assert gathered[1][2] == stop

    def test_runs_of_three_or_more_arcs(self):
        layout = _runs_network().timearc_csr
        plan = layout.gather_plan
        assert plan is not None
        extras = np.diff(plan.extra_offsets).tolist()
        # Group 3 has no extra arc; group 1 ORs four arcs into one head.
        assert extras == [11, 4, 0, 5]
        repeats = np.unique(plan.extra_heads[: extras[0]], return_counts=True)[1]
        assert sorted(repeats.tolist()) == [1, 1, 2, 3, 4]
        # Each extra arc ORs into its own head's row.
        group_of_extra = np.repeat(np.arange(layout.num_groups), extras)
        entries = layout.head_offsets[group_of_extra] + plan.extra_heads
        heads = layout.narrow_heads[~np.isin(np.arange(layout.num_arcs), _run_starts(layout))]
        np.testing.assert_array_equal(layout.head_values[entries], heads)

    def test_stacked_copies_match_their_networks(self, monkeypatch):
        graph, lifetime, copies = grid_graph(8, 8), 64, 32
        draws = [
            uniform_label_draws(graph, lifetime=lifetime, seed=trial)
            for trial in range(copies)
        ]
        layout = build_stack_timearc_csr(graph, draws, lifetime)
        assert layout.gather_plan is not None

        def stacked():
            return _sweep(layout, None, 0, reverse=False, arrivals=False, copies=copies)

        reached = stacked().reached
        with _without_plan(monkeypatch):
            np.testing.assert_array_equal(stacked().reached, reached)
        for trial, trial_draws in enumerate(draws):
            network = TemporalGraph.from_label_matrix(graph, trial_draws, lifetime=lifetime)
            own = _sweep(network, None, 0, reverse=False, arrivals=False).reached
            np.testing.assert_array_equal(
                reached[trial * graph.n : (trial + 1) * graph.n], own
            )


def _run_starts(layout: TimeArcCSR) -> np.ndarray:
    """The layout position of the first arc of every head run."""
    per_group = np.diff(layout.head_offsets)
    return layout.head_starts + np.repeat(layout.arc_offsets[:-1], per_group)


# --------------------------------------------------------------------- #
# which layouts take the plan
# --------------------------------------------------------------------- #
def _threshold_network(heads: tuple[int, int], extras: tuple[int, int]) -> TemporalGraph:
    """Two groups with ``heads[g]`` heads, ``extras[g]`` of which take a second arc."""
    runs = [[2] * extra + [1] * (count - extra) for count, extra in zip(heads, extras)]
    return _arcs_network(300, 2, runs, seed=11)


def _e5_star_stack() -> TimeArcCSR:
    star = star_graph(255)
    draws = [
        uniform_label_draws(star, labels_per_edge=17, lifetime=256, seed=trial)
        for trial in range(7)
    ]
    return build_stack_timearc_csr(star, draws, 256)


class TestSelectionRule:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_the_benchmark_grid_takes_the_plan(self, direction):
        network = uniform_random_labels(grid_graph(100, 100), lifetime=64, seed=42)
        assert _layout(network, direction).gather_plan is not None

    @pytest.mark.parametrize(
        "layout",
        [
            lambda: uniform_random_labels(
                complete_graph(256, directed=True), lifetime=256, seed=0
            ).timearc_csr,
            _e5_star_stack,
            lambda: uniform_random_labels(
                complete_graph(64, directed=True), lifetime=1024, seed=0
            ).timearc_csr,
            lambda: uniform_random_labels(grid_graph(30, 30), lifetime=8, seed=0).timearc_csr,
        ],
        ids=["directed-K256", "E5-star-stack", "E2-K64-a1024", "grid-30x30-a8"],
    )
    def test_dense_or_few_headed_layouts_keep_the_reduction(self, layout):
        assert layout().gather_plan is None

    @pytest.mark.parametrize(
        "heads, extras, taken",
        [
            ((64, 64), (8, 8), True),  # 128 heads over 2 groups, 16 extra arcs
            ((64, 63), (8, 7), False),  # one head short of 64 per group
            ((64, 64), (9, 8), False),  # one extra arc past one per 8 heads
            ((100, 28), (16, 0), True),  # the rule counts the layout, not a group
        ],
    )
    def test_thresholds(self, heads, extras, taken):
        layout = _threshold_network(heads, extras).timearc_csr
        assert layout.num_groups == 2
        assert layout.head_values.size == sum(heads)
        assert layout.num_arcs - layout.head_values.size == sum(extras)
        assert (layout.gather_plan is not None) == taken

    def test_the_plan_is_derived_once_and_not_counted(self):
        layout = GATHERED["grid-30x30-a16"]().timearc_csr
        stored = layout.nbytes
        assert layout.gather_plan is layout.gather_plan
        assert layout.nbytes == stored
        for column in layout.gather_plan:
            assert column.dtype == np.int64 and not column.flags.writeable


class TestPlanTelemetry:
    def test_one_derivation_per_grid_layout_direction(self):
        network = GATHERED["grid-30x30-a16"]()
        with telemetry.session() as recorder:
            for _ in range(2):
                for direction in ("forward", "reverse"):
                    blocked_sweep_summary(network, tile_size=300, direction=direction)
        assert recorder.counters["csr.plans"] == 2
        assert recorder.timings["csr.plan_ms"].count == 2
        report = telemetry.format_layer_report(recorder)
        assert "csr.plans" in report and "csr.plan_ms" in report

    def test_profile_prints_the_derivations(self, capsys):
        # E6's default scale sweeps stacks that take a plan.
        assert main(["profile", "E6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  csr\.plans +x +[1-9]", out, re.M), out
        assert re.search(r"^  csr\.plan_ms +x +[1-9]", out, re.M), out

    def test_none_on_k256(self):
        network = uniform_random_labels(
            complete_graph(256, directed=True), lifetime=256, seed=0
        )
        with telemetry.session() as recorder:
            blocked_sweep_summary(network, direction="forward")
        assert "csr.plans" not in recorder.counters
        assert "csr.plan_ms" not in recorder.timings
        assert recorder.counters["kernel.forward.sweeps"] == 1


# --------------------------------------------------------------------- #
# the last fold
# --------------------------------------------------------------------- #
def _implied_last(swept, start):
    """Each column's last settling label by its arrivals, or its start value."""
    arrivals = swept.arrivals
    return np.where(arrivals < UNREACHABLE, arrivals, start).max(axis=0)


LAST_NETWORKS = {
    "clique-140": lambda: normalized_urtn(complete_graph(140, directed=True), seed=3),
    "grid-12x12-a4": lambda: uniform_random_labels(grid_graph(12, 12), lifetime=4, seed=0),
    "grid-12x12-a300": lambda: uniform_random_labels(
        grid_graph(12, 12), lifetime=300, labels_per_edge=3, seed=0
    ),
    "grid-30x30-a16": GATHERED["grid-30x30-a16"],
}


class TestLastFold:
    WIDTHS = (1, 63, 64, 65, 129)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(LAST_NETWORKS))
    def test_last_is_what_the_arrivals_imply(self, instance_id, direction):
        network = LAST_NETWORKS[instance_id]()
        exits = set()
        kept_start = False
        for width in self.WIDTHS:
            rows = _columns(network, width, f"last/{instance_id}/{direction}/{width}")
            for start in (0, network.lifetime // 2, network.lifetime - 1):
                for required in (None, _packed(np.ones((network.n, width), dtype=bool))):
                    swept, (_, saturated, deficient) = _run(
                        network, direction, rows, start, settles=True, required=required
                    )
                    np.testing.assert_array_equal(
                        swept.last, _implied_last(swept, start), err_msg=str((width, start))
                    )
                    exits.add("saturation" if saturated else "deficient" if deficient else None)
                    kept_start |= bool(np.any(swept.last == start))
        assert kept_start
        if instance_id.startswith("clique"):
            assert "saturation" in exits
        else:
            assert {None, "deficient"} <= exits

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_never_settled_columns_keep_their_start(self, direction):
        network = LAST_NETWORKS["grid-12x12-a4"]()
        start = network.lifetime - 1
        never = 0
        for width in self.WIDTHS:
            rows = _columns(network, width, f"late/{direction}/{width}")
            swept, _ = _run(network, direction, rows, start, settles=True)
            # Every column reaches its own start entry.
            settled_any = np.count_nonzero(swept.arrivals < UNREACHABLE, axis=0) > 1
            np.testing.assert_array_equal(swept.last[~settled_any], start)
            assert np.all(swept.last[settled_any] > start)
            never += int(np.count_nonzero(~settled_any))
        assert never

    def test_nothing_swept_keeps_every_start(self):
        network = LAST_NETWORKS["grid-12x12-a4"]()
        rows = np.arange(65)
        swept, (groups, _, _) = _run(
            network, "forward", rows, network.lifetime, settles=True
        )
        assert groups == 0
        np.testing.assert_array_equal(swept.last, network.lifetime)
