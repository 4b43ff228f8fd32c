"""Brute-force journey-enumeration oracles for small temporal networks.

The production kernels (`repro.core.journeys`, `repro.core.reverse_journeys`,
the centrality family) all derive from the same label-grouped sweep machinery,
so an implementation bug could in principle hide on *both* sides of a
forward/reverse comparison.  These oracles share nothing with the kernels:
they enumerate journeys directly from the definition — simple paths (distinct
vertices) whose arc labels strictly increase — by depth-first search over the
raw time-arc list, and recompute every pinned quantity from those
enumerations.  They are exponential in ``n`` and meant for ``n <= 8``.

Conventions match the production kernels exactly:

* earliest arrival: ``start_time`` on the source itself, arcs usable only at
  labels ``> current arrival``, ``UNREACHABLE`` when no journey exists;
* latest departure: ``deadline + 1`` on the target itself, arcs usable only
  at labels ``<= deadline`` and strictly increasing along the journey,
  ``NEVER`` when no journey exists.

Restricting the enumeration to *simple* paths loses nothing: labels strictly
increase along a journey, so the first/last visit of a repeated vertex
dominates any non-simple journey for both objectives.

The scalar references :func:`earliest_arrival_times_reference` and
:func:`latest_departure_times_reference` run the label-group sweep one arc at
a time in plain Python; being polynomial, they also check larger instances.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro import NEVER, UNREACHABLE
from repro.core.temporal_graph import TemporalGraph


def _out_arcs(network: TemporalGraph) -> dict[int, list[tuple[int, int]]]:
    """Adjacency ``tail -> [(label, head), ...]`` from the raw time arcs."""
    arcs: dict[int, list[tuple[int, int]]] = {}
    for tail, head, label in zip(
        network.time_arc_tails.tolist(),
        network.time_arc_heads.tolist(),
        network.time_arc_labels.tolist(),
    ):
        arcs.setdefault(tail, []).append((label, head))
    return arcs


def oracle_earliest_arrival_times(
    network: TemporalGraph, source: int, *, start_time: int = 0
) -> np.ndarray:
    """Earliest arrivals from ``source`` by exhaustive journey enumeration."""
    arrival = np.full(network.n, UNREACHABLE, dtype=np.int64)
    arrival[source] = start_time
    adjacency = _out_arcs(network)

    def extend(vertex: int, time: int, visited: frozenset[int]) -> None:
        for label, head in adjacency.get(vertex, ()):
            if label <= time or head in visited:
                continue
            if label < arrival[head]:
                arrival[head] = label
            extend(head, label, visited | {head})

    extend(source, start_time, frozenset([source]))
    return arrival


def oracle_latest_departure_times(
    network: TemporalGraph, target: int, *, deadline: int | None = None
) -> np.ndarray:
    """Latest departures towards ``target`` by exhaustive journey enumeration.

    Walks journeys *backwards* from the target: a journey suffix currently
    departing at ``time`` can be extended by any in-arc labelled strictly
    below ``time``.
    """
    if deadline is None:
        deadline = network.lifetime
    depart = np.full(network.n, NEVER, dtype=np.int64)
    depart[target] = deadline + 1
    in_arcs: dict[int, list[tuple[int, int]]] = {}
    for tail, head, label in zip(
        network.time_arc_tails.tolist(),
        network.time_arc_heads.tolist(),
        network.time_arc_labels.tolist(),
    ):
        if label <= deadline:
            in_arcs.setdefault(head, []).append((label, tail))

    def extend(vertex: int, time: int, visited: frozenset[int]) -> None:
        for label, tail in in_arcs.get(vertex, ()):
            if label >= time or tail in visited:
                continue
            if label > depart[tail]:
                depart[tail] = label
            extend(tail, label, visited | {tail})

    extend(target, deadline + 1, frozenset([target]))
    return depart


def oracle_arrival_matrix(network: TemporalGraph) -> np.ndarray:
    """All-pairs earliest arrivals, one enumeration per source."""
    return np.stack(
        [oracle_earliest_arrival_times(network, s) for s in range(network.n)]
    )


def oracle_departure_matrix(network: TemporalGraph) -> np.ndarray:
    """All-pairs latest departures, one enumeration per target."""
    return np.stack(
        [oracle_latest_departure_times(network, t) for t in range(network.n)]
    )


def oracle_distance_summary(network: TemporalGraph) -> dict[str, object]:
    """The all-pairs distance summary recomputed from the oracle arrivals.

    Pure-Python reduction sharing nothing with the production paths — neither
    the dense ``numpy`` reductions of :class:`repro.analysis_api
    .NetworkAnalysis` nor the blocked accumulators of
    :mod:`repro.core.blocked_sweeps` — so it pins both.  The mean is the
    correctly-rounded float of the exact integer ratio, which both production
    paths reproduce bit for bit at oracle scales.

    Returns plain fields (not a ``DistanceSummary``) plus the per-column
    ``reach_counts`` vector the blocked engine also streams.
    """
    n = network.n
    if n <= 1:
        return {
            "diameter": 0,
            "radius": 0,
            "average_distance": 0.0,
            "reachable_fraction": 1.0,
            "reach_counts": np.zeros(n, dtype=np.int64),
        }
    matrix = oracle_arrival_matrix(network)
    eccentricities = [max(int(matrix[s, v]) for v in range(n)) for s in range(n)]
    distances = [
        int(matrix[s, t])
        for s in range(n)
        for t in range(n)
        if s != t and matrix[s, t] < UNREACHABLE
    ]
    reach_counts = np.array(
        [
            sum(1 for s in range(n) if s != v and matrix[s, v] < UNREACHABLE)
            for v in range(n)
        ],
        dtype=np.int64,
    )
    return {
        "diameter": max(eccentricities),
        "radius": min(eccentricities),
        "average_distance": (
            sum(distances) / len(distances) if distances else float("nan")
        ),
        "reachable_fraction": len(distances) / (n * (n - 1)),
        "reach_counts": reach_counts,
    }


def oracle_reverse_distance_summary(network: TemporalGraph) -> dict[str, object]:
    """The reverse-direction distance summary from the oracle departures.

    Uses the production convention for reverse distances: a latest departure
    ``d`` towards the target means a temporal distance of
    ``(lifetime + 1) - d``; ``NEVER`` means unreachable.  The per-row
    statistics are per *target* (one oracle enumeration each), matching the
    blocked engine's ``direction="reverse"`` tiling.
    """
    n = network.n
    if n <= 1:
        return {
            "diameter": 0,
            "radius": 0,
            "average_distance": 0.0,
            "reachable_fraction": 1.0,
            "reach_counts": np.zeros(n, dtype=np.int64),
        }
    horizon = network.lifetime + 1
    departures = oracle_departure_matrix(network)
    distances_to = [
        [
            UNREACHABLE if departures[t, s] == NEVER else horizon - int(departures[t, s])
            for s in range(n)
        ]
        for t in range(n)
    ]
    eccentricities = [max(row) for row in distances_to]
    reachable = [
        distances_to[t][s]
        for t in range(n)
        for s in range(n)
        if s != t and distances_to[t][s] < UNREACHABLE
    ]
    reach_counts = np.array(
        [
            sum(1 for t in range(n) if t != s and distances_to[t][s] < UNREACHABLE)
            for s in range(n)
        ],
        dtype=np.int64,
    )
    return {
        "diameter": max(eccentricities),
        "radius": min(eccentricities),
        "average_distance": (
            sum(reachable) / len(reachable) if reachable else float("nan")
        ),
        "reachable_fraction": len(reachable) / (n * (n - 1)),
        "reach_counts": reach_counts,
    }


def oracle_centrality(network: TemporalGraph) -> dict[str, np.ndarray]:
    """The temporal-centrality family recomputed from the oracle arrivals."""
    n = network.n
    matrix = oracle_arrival_matrix(network)
    closeness = np.zeros(n, dtype=np.float64)
    harmonic = np.zeros(n, dtype=np.float64)
    influence = np.zeros(n, dtype=np.int64)
    reach = np.zeros(n, dtype=np.int64)
    for u in range(n):
        distances = [
            int(matrix[u, t])
            for t in range(n)
            if t != u and matrix[u, t] < UNREACHABLE
        ]
        influence[u] = len(distances)
        if distances:
            closeness[u] = len(distances) / sum(distances)
        if n > 1:
            harmonic[u] = sum(1.0 / d for d in distances) / (n - 1)
    for v in range(n):
        reach[v] = sum(
            1 for s in range(n) if s != v and matrix[s, v] < UNREACHABLE
        )
    return {
        "closeness": closeness,
        "harmonic": harmonic,
        "influence": influence,
        "reach": reach,
    }



def _label_groups(network: TemporalGraph, *, descending: bool):
    """``(label, [(tail, head), ...])`` for each label of the raw time arcs."""
    arcs = sorted(
        zip(
            network.time_arc_labels.tolist(),
            network.time_arc_tails.tolist(),
            network.time_arc_heads.tolist(),
        ),
        reverse=descending,
    )
    for label, group in groupby(arcs, key=lambda arc: arc[0]):
        yield label, [(tail, head) for _, tail, head in group]


def earliest_arrival_times_reference(
    network: TemporalGraph, source: int, *, start_time: int = 0
) -> np.ndarray:
    """Scalar sweep: earliest arrivals from ``source``, labels ascending.

    Every arc of a label group is tested against the arrivals from before
    the group, so a group never chains two of its own arcs.
    """
    arrival = [UNREACHABLE] * network.n
    arrival[source] = start_time
    for label, group in _label_groups(network, descending=False):
        for head in [h for t, h in group if arrival[t] < label < arrival[h]]:
            arrival[head] = label
    return np.asarray(arrival, dtype=np.int64)


def latest_departure_times_reference(
    network: TemporalGraph, target: int, *, deadline: int | None = None
) -> np.ndarray:
    """Scalar sweep: latest departures towards ``target``, labels descending.

    Only arcs labelled at most ``deadline`` (default: the lifetime) count.
    """
    if deadline is None:
        deadline = network.lifetime
    depart = [NEVER] * network.n
    depart[target] = deadline + 1
    for label, group in _label_groups(network, descending=True):
        if label <= deadline:
            for tail in [t for t, h in group if depart[t] < label < depart[h]]:
                depart[tail] = label
    return np.asarray(depart, dtype=np.int64)
