"""The one sweep kernel (:class:`repro.core.kernels.NumpyBackend`).

Five concerns are pinned here, all below the oracle cross-check:

* **real sizes** — at ``n = 64``, beyond the oracle pool's ``n <= 8``, every
  row of both all-pairs matrices equals the scalar references of
  ``tests/oracles.py`` on structured families;
* **saturation exit points** — the kernel's settled-entry counter stops
  every width > 1 sweep at the label group that settles its last entry, so
  ``groups_scanned`` / ``saturation_exits`` equal what the scalar
  references' final arrivals imply;
* **packed words** — the packed ``reached`` bitset at widths across 64-bit
  word boundaries, with the arrivals staged in ``uint8`` and in ``uint16``,
  equals the ``tests/oracles.py`` references;
* **sweep outputs** — the ``settled`` counts, ``last`` labels and final
  bitset equal what the same sweep's arrivals imply, and a reach-only sweep
  stops at the same label group as an arrivals sweep;
* **the kernel's name** — ``"numpy"`` is the only name
  :func:`repro.core.kernels.set_default_backend` accepts.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro import telemetry
from repro.core import kernels
from repro.core.kernels import numpy_backend
from repro.core.journeys import _sweep, earliest_arrival_matrix, earliest_arrival_times
from repro.core.reverse_journeys import latest_departure_matrix, latest_departure_times
from repro.exceptions import ConfigurationError
from repro import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    normalized_urtn,
    star_graph,
    uniform_random_labels,
)
from repro.types import UNREACHABLE

from oracles import (
    earliest_arrival_times_reference,
    exit_point_reference,
    latest_departure_times_reference,
)


# --------------------------------------------------------------------- #
# real sizes
# --------------------------------------------------------------------- #
def _parity_instances(n: int):
    """Structured families × seeds at size ``n`` (hypercube needs 2^k)."""
    dimension = int(np.log2(n))
    assert 2**dimension == n
    instances = {}
    for seed in (0, 1):
        instances[f"complete-{n}-{seed}"] = normalized_urtn(
            complete_graph(n, directed=True), seed=seed
        )
        instances[f"er-{n}-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(n, min(1.0, 8.0 / n), directed=True, seed=seed),
            lifetime=2 * n,
            labels_per_edge=2,
            seed=seed + 10,
        )
        instances[f"star-{n}-{seed}"] = normalized_urtn(star_graph(n - 1), seed=seed)
        instances[f"hypercube-{n}-{seed}"] = uniform_random_labels(
            hypercube_graph(dimension), lifetime=3 * dimension, seed=seed + 20
        )
    return instances


class TestScalarReferenceParity:
    """The kernel against the scalar references at ``n = 64``.

    Both all-pairs matrices must equal the references row for row.  A few
    probe vertices also run the single-row entry points, forward from
    ``start_time = 0`` and reverse to a deadline halfway through the
    lifetime.
    """

    @pytest.mark.parametrize("instance_id", sorted(_parity_instances(64)), ids=str)
    def test_n64(self, instance_id):
        network = _parity_instances(64)[instance_id]
        arrivals = earliest_arrival_matrix(network)
        departures = latest_departure_matrix(network)
        for vertex in range(network.n):
            np.testing.assert_array_equal(
                arrivals[vertex], earliest_arrival_times_reference(network, vertex)
            )
            np.testing.assert_array_equal(
                departures[vertex], latest_departure_times_reference(network, vertex)
            )
        deadline = max(1, network.lifetime // 2)
        for vertex in range(0, network.n, network.n // 4):
            np.testing.assert_array_equal(
                earliest_arrival_times(network, vertex), arrivals[vertex]
            )
            np.testing.assert_array_equal(
                latest_departure_times(network, vertex, deadline=deadline),
                latest_departure_times_reference(network, vertex, deadline=deadline),
            )


# --------------------------------------------------------------------- #
# saturation exit points
# --------------------------------------------------------------------- #
def _exit_point_instances():
    """Small structured families × seeds, plus one single-label clique."""
    instances = {}
    for seed in range(3):
        instances[f"complete-12-{seed}"] = normalized_urtn(
            complete_graph(12, directed=True), seed=seed
        )
        instances[f"er-24-{seed}"] = uniform_random_labels(
            erdos_renyi_graph(24, 0.2, directed=True, seed=seed),
            lifetime=30,
            labels_per_edge=2,
            seed=seed + 10,
        )
        instances[f"star-16-{seed}"] = normalized_urtn(star_graph(15), seed=seed)
        instances[f"hypercube-16-{seed}"] = uniform_random_labels(
            hypercube_graph(4), lifetime=12, seed=seed + 20
        )
        instances[f"grid-5x5-{seed}"] = uniform_random_labels(
            grid_graph(5, 5), lifetime=8, seed=seed + 30
        )
    # One label value on every arc: the first improving group settles
    # every reachable entry, so the sweep saturates right there.
    instances["complete-8-single-label"] = uniform_random_labels(
        complete_graph(8, directed=True), lifetime=1, seed=0
    )
    return instances


def _swept(network, direction, rows, time):
    """The matrix and ``(groups_scanned, saturation_exits)`` of one sweep."""
    with telemetry.session() as recorder:
        if direction == "forward":
            matrix = earliest_arrival_matrix(network, rows, start_time=time)
        else:
            matrix = latest_departure_matrix(network, rows, deadline=time)
    counters = recorder.counters
    return matrix, (
        counters[f"kernel.{direction}.groups_scanned"],
        counters.get(f"kernel.{direction}.saturation_exits", 0),
    )


def _exit_point(network, direction, rows, time):
    """``(groups_scanned, saturation_exits)`` of one width > 1 sweep."""
    return _swept(network, direction, rows, time)[1]


def _reference(network, direction, rows, time):
    """The scalar references' rows for the sweep ``_swept`` runs."""
    if direction == "forward":
        return np.array(
            [earliest_arrival_times_reference(network, v, start_time=time) for v in rows]
        )
    return np.array(
        [latest_departure_times_reference(network, v, deadline=time) for v in rows]
    )


class TestSaturationExitPoints:
    """The kernel counts settled entries instead of rescanning the state.

    It must stop at the label group where ``arrivals.max() <= label`` first
    holds, so on every width > 1 sweep its ``groups_scanned`` and
    ``saturation_exits`` must equal what the scalar references' final
    arrivals imply (:func:`oracles.exit_point_reference`).
    """

    DRAWS = 20

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(_exit_point_instances()), ids=str)
    def test_exits_where_the_scalar_references_settle(self, instance_id, direction):
        network = _exit_point_instances()[instance_id]
        rng = np.random.default_rng(zlib.crc32(f"{instance_id}/{direction}".encode()))
        for _ in range(self.DRAWS):
            width = int(rng.integers(2, network.n + 1))
            rows = np.sort(rng.choice(network.n, size=width, replace=False))
            time = int(rng.integers(0, network.lifetime + 3))
            reference = _reference(network, direction, rows, time)
            assert _exit_point(network, direction, rows, time) == exit_point_reference(
                network, time, reference, reverse=direction == "reverse"
            ), (rows.tolist(), time)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_grid_never_saturates(self, direction):
        network = _exit_point_instances()["grid-5x5-0"]
        time = 0 if direction == "forward" else network.lifetime
        groups = np.unique(network.time_arc_labels).size
        assert _exit_point(network, direction, np.arange(network.n), time) == (
            groups,
            0,
        )

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_saturates_on_first_improving_group(self, direction):
        network = _exit_point_instances()["complete-8-single-label"]
        time = 0 if direction == "forward" else network.lifetime
        assert _exit_point(network, direction, np.arange(network.n), time) == (1, 1)


# --------------------------------------------------------------------- #
# the packed kernel across word boundaries
# --------------------------------------------------------------------- #
class _WriteBackSpy:
    """Stands in for ``np`` in the kernel's module.  It records the dtype of
    every stage the kernel allocates (its one ``np.zeros`` call without
    ``required``) and counts the groups that stage arrivals (one
    ``np.unpackbits`` each)."""

    def __init__(self):
        self.write_backs = 0
        self.stages = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        self.stages.append(np.dtype(dtype))
        return np.zeros(shape, dtype=dtype)

    def unpackbits(self, *args, **kwargs):
        self.write_backs += 1
        return np.unpackbits(*args, **kwargs)


def _check_packed_widths(network, direction, times, widths, monkeypatch):
    """Sweep random columns at every width and time; return the stage dtypes.

    Every sweep must equal the scalar references (matrix, and the
    ``groups_scanned`` and ``saturation_exits`` they imply), and every width
    must stage some arrivals.
    """
    spy = _WriteBackSpy()
    monkeypatch.setattr(numpy_backend, "np", spy)
    rng = np.random.default_rng(zlib.crc32(f"packed/{direction}".encode()))
    for width in widths:
        write_backs = spy.write_backs
        for time in times:
            rows = np.sort(rng.choice(network.n, size=width, replace=False))
            matrix, exits = _swept(network, direction, rows, time)
            expected = _reference(network, direction, rows, time)
            np.testing.assert_array_equal(matrix, expected)
            assert exits == exit_point_reference(
                network, time, expected, reverse=direction == "reverse"
            ), (width, time)
        assert spy.write_backs > write_backs, width
    return set(spy.stages)


class TestPackedKernelWidths:
    """The kernel's packed sweep where the other pins do not reach.

    Those pins sweep at most 64 columns, one ``uint64`` word per vertex.
    Here widths across the word boundaries run forward and reverse on a
    12 × 12 grid with 4 labels.  Each width sweeps random columns from every
    start time (forward) or deadline (reverse) in ``[0, lifetime + 2]``.
    A second grid carries more than 255 distinct labels, so its arrivals are
    staged in ``uint16`` instead of ``uint8``.
    """

    WIDTHS = (7, 8, 9, 63, 64, 65, 129)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_matches_the_scalar_references(self, direction, monkeypatch):
        network = uniform_random_labels(grid_graph(12, 12), lifetime=4, seed=0)
        times = range(network.lifetime + 3)
        stages = _check_packed_widths(
            network, direction, times, self.WIDTHS, monkeypatch
        )
        assert stages == {np.dtype(np.uint8)}

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_more_than_255_groups_stage_in_uint16(self, direction, monkeypatch):
        network = uniform_random_labels(
            grid_graph(12, 12), lifetime=300, labels_per_edge=3, seed=0
        )
        assert np.unique(network.time_arc_labels).size > 255
        lifetime = network.lifetime
        times = (0, 1, 150, lifetime - 1, lifetime, lifetime + 2)
        stages = _check_packed_widths(
            network, direction, times, self.WIDTHS, monkeypatch
        )
        assert stages == {np.dtype(np.uint16)}


# --------------------------------------------------------------------- #
# the optional outputs of one sweep
# --------------------------------------------------------------------- #
def _outputs(network, direction, rows, time, **asked):
    """One ``_sweep`` from ``rows`` at start time / deadline ``time``, with
    its ``(groups_scanned, saturation_exits)``."""
    reverse = direction == "reverse"
    start = network.lifetime - time if reverse else time
    with telemetry.session() as recorder:
        swept = _sweep(network, rows, start, reverse=reverse, **asked)
    counters = recorder.counters
    return swept, (
        counters[f"kernel.{direction}.groups_scanned"],
        counters.get(f"kernel.{direction}.saturation_exits", 0),
    )


def _reached_bits(reached, width):
    """The ``(n, width)`` boolean view of a packed bitset; padding must be clear."""
    bits = np.unpackbits(reached.view(np.uint8), axis=1).view(np.bool_)
    assert not bits[:, width:].any()
    return bits[:, :width]


def _implied_by(network, direction, rows, time, arrivals):
    """The ``settled`` counts and ``last`` labels an arrival state implies."""
    reverse = direction == "reverse"
    csr = network.reverse_timearc_csr if reverse else network.timearc_csr
    start = network.lifetime - time if reverse else time
    reached = arrivals < UNREACHABLE
    settled = reached.copy()
    settled[rows, np.arange(rows.size)] = False
    values = arrivals[settled]
    counts = np.array([np.count_nonzero(values == label) for label in csr.labels])
    last = np.where(reached, arrivals, start).max(axis=0)
    return counts, last


class TestSweepOutputs:
    """``settled``, ``last`` and ``reached`` against the arrivals they summarise.

    On the packed-width grid of :class:`TestPackedKernelWidths`, the kernel
    sweeps the same random columns four ways: arrivals only,
    arrivals with the settle outputs, the settle outputs alone, and reach
    only.  The settle outputs must equal what the arrivals imply, every
    final bitset must equal ``arrivals < UNREACHABLE``, the arrivals must
    not change when the settle outputs ride along, and all four sweeps must
    scan the same groups and saturate alike.
    """

    WIDTHS = TestPackedKernelWidths.WIDTHS

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_outputs_match_the_arrivals(self, direction):
        network = uniform_random_labels(grid_graph(12, 12), lifetime=4, seed=0)
        rng = np.random.default_rng(zlib.crc32(f"outputs/{direction}".encode()))
        for width in self.WIDTHS:
            for time in range(network.lifetime + 3):
                rows = np.sort(rng.choice(network.n, size=width, replace=False))

                def sweep(**asked):
                    return _outputs(network, direction, rows, time, **asked)

                plain, exits = sweep()
                both, both_exits = sweep(settles=True)
                settles, settles_exits = sweep(arrivals=False, settles=True)
                reach, reach_exits = sweep(arrivals=False)
                assert exits == both_exits == settles_exits == reach_exits, (width, time)
                np.testing.assert_array_equal(both.arrivals, plain.arrivals)
                counts, last = _implied_by(network, direction, rows, time, plain.arrivals)
                for swept in (both, settles):
                    np.testing.assert_array_equal(swept.settled, counts)
                    np.testing.assert_array_equal(swept.last, last)
                for swept in (plain, both, settles, reach):
                    np.testing.assert_array_equal(
                        _reached_bits(swept.reached, width),
                        plain.arrivals < UNREACHABLE,
                    )
                assert settles.arrivals is None and reach.settled is None

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("instance_id", sorted(_exit_point_instances()), ids=str)
    def test_reach_only_exits_where_arrivals_do(self, instance_id, direction):
        network = _exit_point_instances()[instance_id]
        rng = np.random.default_rng(zlib.crc32(f"reach/{instance_id}/{direction}".encode()))
        for _ in range(TestSaturationExitPoints.DRAWS // 2):
            width = int(rng.integers(2, network.n + 1))
            rows = np.sort(rng.choice(network.n, size=width, replace=False))
            time = int(rng.integers(0, network.lifetime + 3))
            arrivals, exits = _outputs(network, direction, rows, time)
            reach, reach_exits = _outputs(
                network, direction, rows, time, arrivals=False
            )
            assert reach_exits == exits, (rows.tolist(), time)
            np.testing.assert_array_equal(
                _reached_bits(reach.reached, width),
                _reached_bits(arrivals.reached, width),
            )


# --------------------------------------------------------------------- #
# the kernel's name
# --------------------------------------------------------------------- #
class TestKernelName:
    def test_numpy_is_the_only_name(self):
        assert kernels.set_default_backend("numpy") is None
        assert kernels.default_backend() == "numpy"
        for name in ("python", "numba", "auto"):
            with pytest.raises(ConfigurationError, match=repr(name)):
                kernels.set_default_backend(name)
        assert kernels.default_backend() == "numpy"
