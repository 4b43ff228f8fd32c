"""Latest-departure journeys: the reverse (target-major) sweep kernels.

The forward kernels (:mod:`repro.core.journeys`) answer "departing ``s`` at
``start_time``, when does each vertex first hear the message?".  This module
answers the mirrored single-*target* questions in one sweep each:

* **latest departure** — for a target ``t`` and a deadline ``D`` (defaulting
  to the lifetime), the latest label at which a journey may leave each vertex
  and still reach ``t`` using labels ``<= D``;
* **reverse reachability** — which vertices can reach ``t`` at all, i.e. the
  support of the latest-departure vector.

Semantics mirror the forward sweep exactly under *time reversal*.  Writing
``M(x) = D + 1 − x``, a journey ``v → t`` with labels ``l_1 < … < l_k <= D``
corresponds to a journey ``t → v`` in the arc-flipped network with labels
``M(l_k) < … < M(l_1)``; its arrival there is ``M(l_1)``, so

``latest_departure(G, t)[v] == M(earliest_arrival(reverse(G), t)[v])``

entry for entry (:meth:`TemporalGraph.time_reversed` builds ``reverse(G)``,
and ``tests/test_reverse_sweep.py`` pins the identity bit-for-bit).  The
conventions follow from the mirror: the target itself reports ``D + 1``
(mirror of the source's ``start_time`` arrival) and vertices that cannot
reach the target report :data:`~repro.types.NEVER` ``= 0`` (mirror of
:data:`~repro.types.UNREACHABLE`).

All kernels process the label groups of the cached target-major CSR layout
(:attr:`TemporalGraph.reverse_timearc_csr`) in *descending* order: an arc
labelled ``l`` can start a suffix towards the target exactly when its head
already departs strictly after ``l``, so a single ordered pass computes exact
latest departures; a sweep stops early once every departure is at least the
current label (later groups carry only smaller labels and max-updates with a
smaller value change nothing).  :func:`latest_departure_matrix` batches many
targets through one sweep the same way :func:`earliest_arrival_matrix`
batches sources.  A scalar pure-Python reference is kept for
cross-validation.

Like the forward module, the hot loop is pluggable: the sweep entry points
accept a ``backend=`` keyword naming a registered :mod:`repro.core.kernels`
backend and delegate the descending group advance to it; all backends are
pinned bit-identical, so the choice only affects speed.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..telemetry import active as _telemetry_active
from ..types import NEVER, as_vertex_array
from ..utils.validation import check_non_negative_int
from ._kernel_telemetry import record_sweep as _record_sweep
from .kernels import resolve_backend as _resolve_backend
from .temporal_graph import TemporalGraph

__all__ = [
    "latest_departure_times",
    "latest_departure_times_reference",
    "latest_departure_matrix",
    "latest_departure",
    "reverse_reachable_set",
]


def _validate_vertex(graph_n: int, vertex: int, role: str) -> int:
    vertex = int(vertex)
    if not 0 <= vertex < graph_n:
        raise ValueError(
            f"{role} {vertex} is not a vertex of a graph with {graph_n} vertices"
        )
    return vertex


def _resolve_deadline(network: TemporalGraph, deadline: int | None) -> int:
    if deadline is None:
        return network.lifetime
    return check_non_negative_int(deadline, "deadline")


def latest_departure_times(
    network: TemporalGraph,
    target: int,
    *,
    deadline: int | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Latest departure time at every vertex for journeys reaching ``target``.

    Parameters
    ----------
    network:
        The temporal network.
    target:
        Target vertex.
    deadline:
        Journeys must arrive by this time; only arcs with labels at most
        ``deadline`` may be used.  Defaults to the network's lifetime (no
        restriction), the mirror of the forward kernels' ``start_time = 0``.
    backend:
        Name of the :mod:`repro.core.kernels` backend to run the sweep on;
        ``None`` (the default) uses the ambient selection.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``n``; entry ``v`` is the largest label a
        journey ``v → target`` can start with (its departure time), or
        :data:`~repro.types.NEVER` when no journey exists.  The target itself
        reports ``deadline + 1``.
    """
    target = _validate_vertex(network.n, target, "target")
    deadline = _resolve_deadline(network, deadline)
    kernel = _resolve_backend(backend)
    recs = _telemetry_active()
    sweep_start = time.perf_counter() if recs else 0.0
    depart = np.full(network.n, NEVER, dtype=np.int64)
    depart[target] = deadline + 1
    groups_scanned = 0
    saturated = False
    if network.num_time_arcs != 0:
        csr = network.reverse_timearc_csr
        last_group = int(np.searchsorted(csr.labels, deadline, side="right"))
        groups_scanned, saturated = kernel.reverse_sweep(
            csr, depart[:, None], last_group
        )
    if recs:
        _record_sweep(
            recs,
            "kernel.reverse",
            start=sweep_start,
            tile_name="targets",
            tile=1,
            groups=groups_scanned,
            saturated=saturated,
            backend=kernel.name,
        )
    return depart


def latest_departure_matrix(
    network: TemporalGraph,
    targets: Sequence[int] | None = None,
    *,
    deadline: int | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Batched latest departures: one label-group sweep for many targets.

    The target-major mirror of
    :func:`repro.core.journeys.earliest_arrival_matrix`: the whole ``(T, n)``
    departure state advances one label group at a time, in descending label
    order, with the per-tail "some usable arc" masks OR-reduced on packed
    bits (``np.bitwise_or.reduceat`` over indices precomputed in the reverse
    CSR layout) — a handful of vectorised operations per label value
    regardless of how many targets are in flight.

    Parameters
    ----------
    network:
        The temporal network.
    targets:
        Targets to compute rows for; defaults to all vertices (the all-pairs
        case).
    deadline:
        Arrive-by time shared by every target; defaults to the lifetime.
    backend:
        Name of the :mod:`repro.core.kernels` backend to run the sweep on;
        ``None`` (the default) uses the ambient selection.

    Returns
    -------
    numpy.ndarray
        ``(len(targets), n)`` ``int64`` matrix; entry ``[i, v]`` is the
        latest departure from ``v`` towards ``targets[i]``
        (``deadline + 1`` on the target column,
        :data:`~repro.types.NEVER` when no journey exists).

    See Also
    --------
    latest_departure_times : the single-target specialisation.
    """
    state = _latest_departure_state(
        network, targets, deadline=deadline, backend=backend
    )
    return np.ascontiguousarray(state.T)


def _latest_departure_state(
    network: TemporalGraph,
    targets: Sequence[int] | None,
    *,
    deadline: int | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Vertex-major ``(n, len(targets))`` state of :func:`latest_departure_matrix`.

    Blocked sweeps reduce its transpose view directly instead of the
    row-major copy the public function returns.
    """
    n = network.n
    deadline = _resolve_deadline(network, deadline)
    if targets is None:
        target_arr = np.arange(n, dtype=np.int64)
    else:
        target_arr = as_vertex_array(targets, n)
    num_targets = target_arr.size
    kernel = _resolve_backend(backend)
    recs = _telemetry_active()
    sweep_start = time.perf_counter() if recs else 0.0
    # Vertex-major state: row v holds the departures from v for every target,
    # so the per-group gathers, segment reductions and scatters all touch
    # contiguous rows (the arcs of a group are sorted by tail).
    depart = np.full((n, num_targets), NEVER, dtype=np.int64)
    depart[target_arr, np.arange(num_targets)] = deadline + 1
    groups_scanned = 0
    saturated = False
    if network.num_time_arcs != 0 and num_targets != 0:
        csr = network.reverse_timearc_csr
        # Departures only ever take values strictly smaller than a head's
        # current departure, so groups labelled > deadline can never be used;
        # skip them.
        last_group = int(np.searchsorted(csr.labels, deadline, side="right"))
        groups_scanned, saturated = kernel.reverse_sweep(csr, depart, last_group)
    if recs:
        _record_sweep(
            recs,
            "kernel.reverse",
            start=sweep_start,
            tile_name="targets",
            tile=num_targets,
            groups=groups_scanned,
            saturated=saturated,
            backend=kernel.name,
        )
    return depart


def latest_departure_times_reference(
    network: TemporalGraph, target: int, *, deadline: int | None = None
) -> np.ndarray:
    """Scalar (pure-Python) reference implementation of latest departures.

    Used by the test suite to cross-validate both the vectorised
    single-target kernel and the batched :func:`latest_departure_matrix`
    engine.  Semantics are identical to :func:`latest_departure_times`.
    """
    target = _validate_vertex(network.n, target, "target")
    deadline = _resolve_deadline(network, deadline)
    depart = [NEVER] * network.n
    depart[target] = deadline + 1
    arcs = sorted(
        zip(
            network.time_arc_labels.tolist(),
            network.time_arc_tails.tolist(),
            network.time_arc_heads.tolist(),
        ),
        reverse=True,
    )
    index = 0
    total = len(arcs)
    while index < total and arcs[index][0] > deadline:
        index += 1
    while index < total:
        label = arcs[index][0]
        group_end = index
        while group_end < total and arcs[group_end][0] == label:
            group_end += 1
        updates: list[tuple[int, int]] = []
        for _, tail, head in arcs[index:group_end]:
            if depart[head] > label and depart[tail] < label:
                updates.append((tail, label))
        for tail, label_value in updates:
            if depart[tail] < label_value:
                depart[tail] = label_value
        index = group_end
    return np.asarray(depart, dtype=np.int64)


def latest_departure(
    network: TemporalGraph,
    source: int,
    target: int,
    *,
    deadline: int | None = None,
    backend: str | None = None,
) -> int:
    """Latest departure time of a journey ``source → target``.

    Returns :data:`~repro.types.NEVER` when no journey exists (rather than
    raising), mirroring :func:`repro.core.journeys.temporal_distance`.
    """
    depart = latest_departure_times(network, target, deadline=deadline, backend=backend)
    return int(depart[_validate_vertex(network.n, source, "source")])


def reverse_reachable_set(
    network: TemporalGraph, target: int, *, backend: str | None = None
) -> np.ndarray:
    """Vertices with a journey *to* ``target`` (including the target itself).

    The reverse mirror of :func:`repro.core.reachability.reachable_set`, and
    the per-vertex "who can influence ``target``" query; costs one reverse
    sweep instead of an all-pairs forward pass.
    """
    depart = latest_departure_times(network, target, backend=backend)
    return np.flatnonzero(depart > NEVER)
