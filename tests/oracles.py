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
:func:`exit_point_reference` says, from a sweep's final rows alone, how many
label groups it scans and whether it exits early, and
:func:`deficient_exit_reference` where a yes/no sweep stops at a row that
falls short.
:func:`prefix_connectivity_time_reference` binary-searches the labels with a
static connectivity check per probe, and :func:`timearc_csr_reference`
gathers the CSR layout with every per-arc column ``int64``
(:func:`assert_layout_matches` compares a layout with it).
:func:`time_arcs_reference` lists a network's time arcs from per-edge label
sets with the per-edge loop of Definition 1, independent of the edge-major
arrays :class:`TemporalGraph` stores.  :func:`stacked_network` holds ``T``
networks on :func:`disjoint_copies` of their graph: the union whose layout a
stack of trials' label draws must equal
(:func:`repro.core.timearc_csr.build_stack_timearc_csr`).

The static-graph references answer by breadth-first search over the arc
arrays, where the package asks ``scipy.sparse.csgraph``:
:func:`bfs_distances_reference`, :func:`all_pairs_shortest_paths_reference`
(one BFS per source), :func:`is_connected_reference` (a second BFS over the
reverse digraph) and :func:`connected_components_reference` (one BFS per new
component); :class:`UnionFind` is the incremental reference for the
``G(n, p)`` connectivity checks, and :func:`to_networkx` hands a graph to the
tests that use networkx as their oracle.  :func:`expansion_process_reference`
runs Algorithm 1 with a ``(tail, head) → label`` dict and a Python scan of
every frontier vertex and head, where the package reads a label matrix.

:func:`opt_labels_exhaustive` finds the Price of Randomness's ``OPT`` by
trying every label assignment of a tiny graph, and certifies the analytic
bounds of :mod:`repro.core.price_of_randomness`;
:func:`minimal_labels_linear_sweep` estimates ``r(n)`` one ``r`` at a time,
the linear twin of the package's doubling and binary search.
"""

from __future__ import annotations

from itertools import combinations, groupby, product
from types import SimpleNamespace

import numpy as np

from repro import NEVER, UNREACHABLE
from repro.core.expansion import ExpansionParameters, ExpansionResult
from repro.core.guarantees import reachability_probability
from repro.core.reachability import preserves_reachability
from repro.core.temporal_graph import TemporalGraph
from repro.core.timearc_csr import TimeArcCSR
from repro.exceptions import ConfigurationError, GraphError, InvalidVertexError
from repro.graphs.properties import is_connected
from repro.graphs.static_graph import StaticGraph
from repro.types import Journey, TimeEdge
from repro.utils.seeding import spawn_rngs
from repro.utils.validation import check_positive_int, check_probability


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


def exit_point_reference(
    network: TemporalGraph, time: int, final: np.ndarray, *, reverse: bool = False
) -> tuple[int, int]:
    """``(groups_scanned, saturation_exits)`` of a sweep over two or more
    rows that ends in the rows ``final``.

    ``time`` is the start time (forward) or the deadline (``reverse``).  The
    sweep scans the label groups after its start in sweep order: labels
    above ``time`` ascending, or labels at most ``time`` descending.  With an
    entry left unreached it scans every one of them and never exits early.
    Otherwise it exits once, at the group that settles its last entry: the
    largest arrival, or the smallest departure.
    """
    labels = np.unique(network.time_arc_labels)
    if reverse:
        pending = labels[labels <= time]
        if (final == NEVER).any():
            return int(pending.size), 0
        return int(np.count_nonzero(pending >= final.min())), 1
    pending = labels[labels > time]
    if (final == UNREACHABLE).any():
        return int(pending.size), 0
    return int(np.count_nonzero(pending <= final.max())), 1


def deficient_exit_reference(
    network: TemporalGraph, reach: np.ndarray, required: np.ndarray
) -> int | None:
    """Label groups a yes/no sweep from time 0 scans before it stops at a
    row that falls short, or ``None`` when no row does.

    ``reach[s, v]`` says a journey from ``s`` to ``v`` exists (from the
    brute-force rows) and ``required[s, v]`` that a "yes" needs one.  Vertex
    ``v`` is *deficient* when column ``v`` of the two differs.  Its row is
    final once the sweep has passed the largest label on an arc into ``v``,
    so the sweep scans that label's rank among the distinct labels, plus
    one, and stops at the first deficient vertex it finalises; a deficient
    vertex without an in-arc stops it before the first group.  With no
    deficient vertex :func:`exit_point_reference` says where it stops.
    """
    labels = np.unique(network.time_arc_labels)
    largest_in: dict[int, int] = {}
    for head, label in zip(
        network.time_arc_heads.tolist(), network.time_arc_labels.tolist()
    ):
        largest_in[head] = max(label, largest_in.get(head, label))
    deficient = np.flatnonzero((reach != required).any(axis=0)).tolist()
    if not deficient:
        return None
    if any(v not in largest_in for v in deficient):
        return 0
    return min(int(np.searchsorted(labels, largest_in[v])) + 1 for v in deficient)


def prefix_connectivity_time_reference(network: TemporalGraph) -> int:
    """Smallest ``k`` such that the edges with a label ``≤ k`` connect the graph.

    The candidate values of ``k`` are only the distinct labels present in the
    instance (connectivity can only change at a label value), and the search
    is binary over them because prefix connectivity is monotone in ``k``.
    """
    n = network.n
    if n <= 1:
        return 0
    labels = np.unique(network.time_arc_labels)
    if labels.size == 0:
        return UNREACHABLE

    pairs = network.graph.edge_pairs

    def connected_at(k: int) -> bool:
        keep = [
            i
            for i, edge_labels in enumerate(
                network.labels_of_edge_index(i) for i in range(network.m)
            )
            if edge_labels and edge_labels[0] <= k
        ]
        sub_edges = [tuple(pairs[i]) for i in keep]
        prefix_graph = StaticGraph(n, sub_edges, directed=False)
        return is_connected_reference(prefix_graph)

    if not connected_at(int(labels[-1])):
        return UNREACHABLE
    lo, hi = 0, labels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if connected_at(int(labels[mid])):
            hi = mid
        else:
            lo = mid + 1
    return int(labels[lo])


#: The columns of :func:`timearc_csr_reference`, every one ``int64``: the
#: layout's stored ``int64`` columns plus the per-arc ``heads`` and
#: ``arc_order`` it derives on first use.
LAYOUT_COLUMNS = (
    "labels",
    "arc_offsets",
    "tails",
    "heads",
    "arc_order",
    "head_values",
    "head_offsets",
    "head_starts",
)


def timearc_csr_reference(
    n: int,
    lifetime: int,
    raw_tails: np.ndarray,
    raw_heads: np.ndarray,
    raw_labels: np.ndarray,
) -> SimpleNamespace:
    """The label-grouped CSR layout with every per-arc column gathered as ``int64``.

    Two stable argsorts on keys cast to the narrowest unsigned type holding
    their maximum, heads first and then labels, order the arcs; every
    column of :data:`LAYOUT_COLUMNS` is then gathered in that order,
    ``heads`` and the permutation ``arc_order`` included.  The label keys
    are the labels themselves, not shifted, and the head runs are found on
    the ``int64`` heads.  The returned namespace also carries ``n`` and
    ``lifetime``.
    """
    columns = dict.fromkeys(LAYOUT_COLUMNS, np.empty(0, dtype=np.int64))
    columns["arc_offsets"] = columns["head_offsets"] = np.zeros(1, dtype=np.int64)
    num_arcs = int(raw_labels.size)
    if num_arcs == 0:
        return SimpleNamespace(n=n, lifetime=lifetime, **columns)

    def narrow(column: np.ndarray) -> np.ndarray:
        return column.astype(np.min_scalar_type(int(column.max())), copy=False)

    order = np.argsort(narrow(raw_heads), kind="stable")
    keys = narrow(raw_labels).take(order)
    by_label = np.argsort(keys, kind="stable")
    order = order.take(by_label)
    keys = keys.take(by_label)
    heads = raw_heads.take(order)

    run_start = np.empty(num_arcs, dtype=bool)
    run_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    group_starts = np.flatnonzero(run_start)
    arc_offsets = np.append(group_starts, num_arcs)
    run_start[1:] |= heads[1:] != heads[:-1]
    head_starts_abs = np.flatnonzero(run_start)
    head_offsets = np.searchsorted(head_starts_abs, arc_offsets)
    heads_per_group = np.diff(head_offsets)
    return SimpleNamespace(
        n=n,
        lifetime=lifetime,
        labels=keys.take(group_starts).astype(np.int64),
        arc_offsets=arc_offsets,
        tails=raw_tails.take(order),
        heads=heads,
        arc_order=order,
        head_values=heads.take(head_starts_abs),
        head_offsets=head_offsets,
        head_starts=head_starts_abs - np.repeat(group_starts, heads_per_group),
    )


def assert_layout_matches(
    layout: TimeArcCSR, expected: SimpleNamespace | TimeArcCSR
) -> None:
    """``layout`` equals ``expected``'s columns, bit for bit.

    ``expected`` is a :func:`timearc_csr_reference` namespace or another
    layout.  Every column of :data:`LAYOUT_COLUMNS`, stored or derived, is
    ``int64``, read-only and equal; the stored narrow head column holds
    ``heads`` in the narrowest unsigned type that holds ``n − 1``.
    """
    assert (layout.n, layout.lifetime) == (expected.n, expected.lifetime)
    for name in LAYOUT_COLUMNS:
        value = getattr(layout, name)
        assert value.dtype == np.int64, name
        assert np.array_equal(value, getattr(expected, name)), name
        assert not value.flags.writeable, name
    assert layout.narrow_heads.dtype == np.min_scalar_type(max(layout.n - 1, 0))
    assert np.array_equal(layout.narrow_heads, expected.heads)
    assert not layout.narrow_heads.flags.writeable


def time_arcs_reference(
    graph: StaticGraph, per_edge_labels
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The time-arc columns ``(tails, heads, labels, edge_index)`` of a labelling.

    ``per_edge_labels[i]`` is the label iterable of canonical edge ``i``
    (duplicates allowed).  The arcs are listed edge by edge, each edge's
    distinct labels ascending; an undirected edge ``{u, v}`` gives ``(u, v, l)``
    and then ``(v, u, l)`` for every label ``l``.
    """
    columns: tuple[list[int], ...] = ([], [], [], [])
    for index, (u, v) in enumerate(graph.edge_pairs.tolist()):
        directions = [(u, v)] if graph.directed else [(u, v), (v, u)]
        for label in sorted({int(label) for label in per_edge_labels[index]}):
            for tail, head in directions:
                for column, value in zip(columns, (tail, head, label, index)):
                    column.append(value)
    tails, heads, labels, edges = (np.asarray(c, dtype=np.int64) for c in columns)
    return tails, heads, labels, edges


def disjoint_copies(graph: StaticGraph, copies: int) -> StaticGraph:
    """The disjoint union of ``copies`` copies of ``graph``, derived by offsets.

    Copy ``t`` holds vertices ``t·n … t·n + n − 1``, and its edges are block
    ``t`` of the canonical edge list, in the graph's order: edge ``e`` of
    copy ``t`` is edge ``t·m + e``.  The pair columns are the graph's plus
    ``t·n``, already in canonical order, so nothing is sorted.  One copy is
    the graph itself.
    """
    copies = check_positive_int(copies, "copies")
    if copies == 1:
        return graph
    offsets = np.arange(copies, dtype=np.int64)[:, np.newaxis] * graph.n
    union = StaticGraph.__new__(StaticGraph)
    union._n = copies * graph.n
    union._directed = graph.directed
    union._init(
        (graph.pair_tails + offsets).ravel(),
        (graph.pair_heads + offsets).ravel(),
        graph.name,
    )
    return union


def stacked_network(networks) -> TemporalGraph:
    """One network holding ``T`` networks on :func:`disjoint_copies` of their graph.

    Network ``t``'s labels go on copy ``t``: the stored ``(edge, label)``
    arrays are the networks' own, concatenated with their edges offset by
    ``t·m``.  A journey of the stack stays inside one copy, so vertex
    ``t·n + v`` reaches what vertex ``v`` reaches in network ``t``.  The
    lifetime is the largest of theirs.  The networks must lie on one graph
    object (``GraphError`` otherwise).
    """
    graph = networks[0].graph
    if any(network.graph is not graph for network in networks):
        raise GraphError("stacked networks must lie on one graph object")
    m = graph.m
    edges = np.concatenate(
        [network._el_edge_index + t * m for t, network in enumerate(networks)]
    )
    labels = np.concatenate([network._el_labels for network in networks])
    lifetime = max(network.lifetime for network in networks)
    union = disjoint_copies(graph, len(networks))
    return TemporalGraph._from_arrays(union, edges, labels, lifetime)


# ---------------------------------------------------------------------- #
# static-graph references: the traversals the package replaced with csgraph
# ---------------------------------------------------------------------- #
def to_networkx(graph: StaticGraph):
    """The networkx graph of ``graph``, for tests that use networkx as an oracle."""
    import networkx as nx

    nx_graph = nx.DiGraph() if graph.directed else nx.Graph()
    nx_graph.add_nodes_from(range(graph.n))
    nx_graph.add_edges_from(graph.edges())
    if graph.name:
        nx_graph.graph["name"] = graph.name
    return nx_graph


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    __slots__ = ("_parent", "_size", "_components")

    def __init__(self, n: int) -> None:
        n = check_positive_int(n, "n")
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)
        self._components = n

    @property
    def num_components(self) -> int:
        """Current number of disjoint sets."""
        return self._components

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s component (with path compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, x: int, y: int) -> bool:
        """Merge the components of ``x`` and ``y``; return True if they were distinct."""
        root_x, root_y = self.find(x), self.find(y)
        if root_x == root_y:
            return False
        if self._size[root_x] < self._size[root_y]:
            root_x, root_y = root_y, root_x
        self._parent[root_y] = root_x
        self._size[root_x] += self._size[root_y]
        self._components -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are currently in the same component."""
        return self.find(x) == self.find(y)

    def component_sizes(self) -> np.ndarray:
        """Sizes of all components, in no particular order."""
        roots = np.asarray([self.find(i) for i in range(self._parent.size)])
        _, counts = np.unique(roots, return_counts=True)
        return counts


def bfs_distances_reference(graph: StaticGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (−1 when unreachable), one frontier at a time."""
    if not graph.has_vertex(source):
        raise InvalidVertexError(source, graph.n)
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    tails = graph.arc_tails
    heads = graph.arc_heads
    level = 0
    while frontier.any():
        level += 1
        new_frontier = np.zeros(n, dtype=bool)
        new_frontier[heads[frontier[tails]]] = True
        new_frontier &= dist == -1
        dist[new_frontier] = level
        frontier = new_frontier
    return dist


def all_pairs_shortest_paths_reference(graph: StaticGraph) -> np.ndarray:
    """All-pairs hop distances, one BFS per source."""
    result = np.empty((graph.n, graph.n), dtype=np.int64)
    for source in range(graph.n):
        result[source] = bfs_distances_reference(graph, source)
    return result


def is_connected_reference(graph: StaticGraph) -> bool:
    """Connectivity (strong for digraphs): a BFS from 0, and one over the reverse."""
    if graph.n == 0:
        return True
    if np.any(bfs_distances_reference(graph, 0) == -1):
        return False
    if not graph.directed:
        return True
    return not np.any(bfs_distances_reference(graph.reverse(), 0) == -1)


def connected_components_reference(graph: StaticGraph) -> list[list[int]]:
    """(Weak) components by smallest vertex, members sorted: a BFS per new vertex."""
    n = graph.n
    undirected = StaticGraph(n, list(graph.arcs()), directed=False)
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        members = bfs_distances_reference(undirected, start) != -1
        labels[members & (labels == -1)] = current
        current += 1
    components: list[list[int]] = [[] for _ in range(current)]
    for v, c in enumerate(labels.tolist()):
        components[c].append(v)
    return components


# ---------------------------------------------------------------------- #
# Algorithm 1: dictionary lookups and nested loops over the frontier sets
# ---------------------------------------------------------------------- #
def expansion_process_reference(
    network: TemporalGraph,
    source: int,
    target: int,
    parameters: ExpansionParameters | None = None,
) -> ExpansionResult:
    """Algorithm 1 with a ``(tail, head) → smallest label`` dict and scalar loops.

    A forward layer scans the previous layer's set in its iteration order
    and every head in ascending order; the first arc found into a head is
    its witness.  The backward layers mirror it into ``t``, and the matching
    arc is the first in ``(u, v)`` order over the two sorted last layers.
    """
    n = network.n
    if parameters is None:
        parameters = ExpansionParameters.suggest(n)
    lookup: dict[tuple[int, int], int] = {}
    for u, v, label in zip(
        network.time_arc_tails.tolist(),
        network.time_arc_heads.tolist(),
        network.time_arc_labels.tolist(),
    ):
        if (u, v) not in lookup or label < lookup[(u, v)]:
            lookup[(u, v)] = label
    d = parameters.d

    def expand(start, end, interval_of, arc):
        layers: list[list[int]] = []
        witnesses: dict[int, tuple[int, int]] = {}
        seen = {start}
        frontier = {start}
        for i in range(1, d + 2):
            low, high = interval_of(n, i)
            found: dict[int, tuple[int, int]] = {}
            for w in frontier:
                for x in range(n):
                    label = lookup.get(arc(w, x))
                    if x != w and label is not None and low < label <= high and x not in found:
                        found[x] = (w, label)
            layer = {x: found[x] for x in found if x not in seen and x != end}
            witnesses.update(layer)
            frontier = set(layer)
            seen |= frontier
            layers.append(sorted(frontier))
            if not frontier:
                break
        while len(layers) < d + 1:
            layers.append([])
        return layers, witnesses

    forward_layers, forward_parent = expand(
        source, target, parameters.forward_interval, lambda w, x: (w, x)
    )
    backward_layers, backward_next = expand(
        target, source, parameters.backward_interval, lambda w, x: (x, w)
    )
    common = dict(
        forward_layer_sizes=[len(layer) for layer in forward_layers],
        backward_layer_sizes=[len(layer) for layer in backward_layers],
        forward_layers=forward_layers,
        backward_layers=backward_layers,
        parameters=parameters,
        time_bound=parameters.time_bound(n),
    )
    low, high = parameters.matching_interval(n)
    match = next(
        (
            (u, v, lookup[(u, v)])
            for u in forward_layers[d]
            for v in backward_layers[d]
            if u != v and (u, v) in lookup and low < lookup[(u, v)] <= high
        ),
        None,
    )
    if match is None:
        return ExpansionResult(success=False, journey=None, arrival_time=None, **common)
    u, v, matching_label = match
    hops = [TimeEdge(u, v, matching_label)]
    current = u
    while current != source:
        parent, label = forward_parent[current]
        hops.insert(0, TimeEdge(parent, current, label))
        current = parent
    current = v
    while current != target:
        nxt, label = backward_next[current]
        hops.append(TimeEdge(current, nxt, label))
        current = nxt
    journey = Journey(source, target, tuple(hops))
    return ExpansionResult(
        success=True, journey=journey, arrival_time=journey.arrival_time, **common
    )


# ---------------------------------------------------------------------- #
# Price of Randomness references: exhaustive OPT and a linear r(n) search
# ---------------------------------------------------------------------- #
def opt_labels_exhaustive(
    graph: StaticGraph, *, lifetime: int | None = None, max_total_labels: int | None = None
) -> int:
    """Exact ``OPT`` by exhaustive search — only feasible for tiny graphs.

    Enumerates assignments by increasing total label count, distributing
    ``k`` labels over the ``m`` edges and trying all label values from
    ``{1, …, lifetime}`` per edge; each candidate is checked with
    :func:`repro.core.reachability.preserves_reachability`.  Graphs with at
    most 6 edges and lifetimes of at most 8 only; larger ones raise
    :class:`ConfigurationError` (a safety valve, not a soft limit).
    """
    if not is_connected(graph):
        raise GraphError("OPT is defined for connected graphs")
    n = graph.n
    if n <= 1:
        return 0
    m = graph.m
    a = check_positive_int(lifetime if lifetime is not None else n, "lifetime")
    if max_total_labels is None:
        max_total_labels = 2 * m
    if m > 6 or a > 8:
        raise ConfigurationError(
            "exhaustive OPT search is only supported for graphs with at most 6 "
            f"edges and lifetime at most 8 (got m={m}, lifetime={a})"
        )

    label_values = list(range(1, a + 1))
    for total in range(m, max_total_labels + 1):
        # Distribute `total` labels over m edges, each edge getting >= 1 label
        # (an edge with no label can be removed; if removing it disconnects the
        # graph the assignment cannot preserve reachability, and if it does not,
        # a smaller graph would have been found at a smaller `total`).
        for counts in _compositions(total, m):
            per_edge_choices = [
                list(combinations(label_values, count)) for count in counts
            ]
            for assignment in product(*per_edge_choices):
                network = TemporalGraph(graph, list(assignment), lifetime=a)
                if preserves_reachability(network):
                    return total
    raise ConfigurationError(
        f"no assignment with at most {max_total_labels} labels preserves "
        "reachability; increase max_total_labels"
    )


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive integers."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    result = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            result.append((first,) + rest)
    return result


def minimal_labels_linear_sweep(
    graph: StaticGraph,
    *,
    target_probability: float = 0.9,
    lifetime: int | None = None,
    trials: int = 30,
    r_max: int = 64,
    seed=None,
) -> int:
    """The smallest ``r ≤ r_max`` whose estimated ``P[T_reach]`` meets the
    target, tried one ``r`` at a time.

    The linear twin of
    :func:`repro.core.guarantees.minimal_labels_for_reachability`'s doubling
    and binary search; the two agree up to Monte-Carlo noise.
    """
    target_probability = check_probability(target_probability, "target_probability")
    r_max = check_positive_int(r_max, "r_max")
    rngs = spawn_rngs(seed, r_max)
    for r in range(1, r_max + 1):
        probability = reachability_probability(
            graph, r, lifetime=lifetime, trials=trials, seed=rngs[r - 1]
        )
        if probability >= target_probability:
            return r
    raise ConfigurationError(
        f"no r <= {r_max} reached the target reachability probability "
        f"{target_probability}"
    )
