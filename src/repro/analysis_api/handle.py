"""The :class:`NetworkAnalysis` handle — the single per-instance compute API.

Every quantity the paper studies on one sampled instance — temporal diameter
(Definition 5 / Theorem 4), eccentricities, reachability fraction, the
``T_reach`` predicate (Definition 6), expansion-process runs (Theorem 3),
Price of Randomness audits (Theorems 7–8) — is a view over the *same*
all-pairs arrival structure produced by one batched
:func:`repro.core.journeys.earliest_arrival_matrix` sweep.  The reductions
themselves are plain functions in :mod:`repro.core`
(:func:`~repro.core.distances.distance_summary`,
:func:`~repro.core.centrality.centrality_arrays`,
:func:`~repro.core.reachability.static_reachability_matrix`, …); the handle
only memoizes.  Construct it once per instance and every quantity is a
cached property or memoized method, so a multi-metric workload costs **one**
sweep instead of one sweep per metric.

>>> from repro import NetworkAnalysis, complete_graph, normalized_urtn
>>> analysis = NetworkAnalysis(normalized_urtn(complete_graph(32, directed=True), seed=0))
>>> analysis.diameter <= 32 and analysis.is_temporally_connected
True

Shared artifacts
----------------
``arrival_matrix()``, the ``(n, n)`` earliest-arrival matrix, is computed at
most once and feeds ``eccentricities()``, ``summary`` and the centrality
family; ``reachability()`` derives from it when it is cached and otherwise
runs one reach-only sweep; ``reachable_fraction`` counts that mask.
``preserves_reachability()`` and ``is_temporally_connected`` answer from a
cached mask; with neither cached they run the yes/no sweeps of
:mod:`repro.core.reachability`, which stop at their first certain failure
and cache no mask, so alone they never write arrival times.
``departure_matrix()`` is its reverse-sweep twin.
Row queries (``distances_from``, ``departures_to``, …) slice a cached matrix
or run memoized narrow sweeps, so a single-target question never pays for an
all-pairs forward pass.  ``expansion()`` and ``por_audit()`` are memoized per
argument set.  ``docs/api.md`` tabulates every artifact and the core
reduction behind it.  :meth:`NetworkAnalysis.restricted_to_max_label` derives
the labels-``≤ k`` child (Theorem 5) from a cached matrix without a sweep.

Instrumentation
---------------
Every artifact access reports to :mod:`repro.telemetry` when a recorder is
active: an actual computation emits the ``analysis.compute.<artifact>``
counter plus the ``analysis.compute_ms.<artifact>`` timing, and a cache hit
emits ``analysis.cache_hit.<artifact>``.  :func:`compute_events` opens a
*scoped* probe over those events —

>>> from repro import NetworkAnalysis, complete_graph, normalized_urtn
>>> from repro.analysis_api import compute_events
>>> handle = NetworkAnalysis(normalized_urtn(complete_graph(8, directed=True), seed=0))
>>> with compute_events() as events:
...     _ = handle.summary
...     _ = handle.summary
>>> events.counts["arrival_matrix"], events.hits["summary"]
(1, 1)

— and composes with any outer :func:`repro.telemetry.session`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..types import NEVER, UNREACHABLE, as_vertex_array
from ..core.blocked_sweeps import blocked_sweep_summary, resolve_tile_size
from ..core.centrality import centrality_arrays
from ..core.distances import DistanceSummary, distance_summary, eccentricities_of
from ..core.expansion import ExpansionParameters, ExpansionResult, expansion_process
from ..core.journeys import earliest_arrival_matrix
from ..core.price_of_randomness import (
    opt_labels_upper_bound,
    por_upper_bound_theorem8,
    price_of_randomness,
)
from ..core.reachability import (
    is_temporally_connected as temporally_connected,
    preserves_reachability as reachability_preserved,
    reachability_matrix,
    static_reachability_matrix,
)
from ..core.reverse_journeys import latest_departure_matrix
from ..core.temporal_graph import TemporalGraph
from ..graphs.properties import diameter as static_diameter
from ..telemetry import TelemetryRecorder, attach as _telemetry_attach
from ..telemetry import active as _telemetry_active

__all__ = [
    "ComputeEvents",
    "DistanceSummary",
    "NetworkAnalysis",
    "PorAudit",
    "compute_events",
]


class ComputeEvents:
    """Live view of the artifact cache traffic inside a :func:`compute_events` scope.

    ``counts`` maps artifact name → number of *actual computations*;
    ``hits`` maps artifact name → number of cache hits.  Both views are
    dictionaries rebuilt from the underlying recorder on access, so they can
    be inspected while the scope is still open.
    """

    __slots__ = ("_recorder",)

    def __init__(self, recorder: TelemetryRecorder) -> None:
        self._recorder = recorder

    @property
    def recorder(self) -> TelemetryRecorder:
        """The underlying scoped :class:`~repro.telemetry.TelemetryRecorder`."""
        return self._recorder

    def _by_prefix(self, prefix: str) -> dict[str, int]:
        return {
            name[len(prefix):]: value
            for name, value in self._recorder.counters.items()
            if name.startswith(prefix)
        }

    @property
    def counts(self) -> dict[str, int]:
        """Artifact name → times it was actually computed in this scope."""
        return self._by_prefix("analysis.compute.")

    @property
    def hits(self) -> dict[str, int]:
        """Artifact name → times it was served from cache in this scope."""
        return self._by_prefix("analysis.cache_hit.")

    def __repr__(self) -> str:
        return f"ComputeEvents(counts={self.counts!r}, hits={self.hits!r})"


@contextmanager
def compute_events() -> Iterator[ComputeEvents]:
    """Scoped probe over :class:`NetworkAnalysis` artifact computations.

    Attaches a private telemetry recorder for the duration of the ``with``
    block and yields a :class:`ComputeEvents` view of it.  The probe is
    scoped (no global state to restore), nests, and composes with an outer
    :func:`repro.telemetry.session` — both see the same events.

    >>> from repro import NetworkAnalysis, complete_graph, normalized_urtn
    >>> handle = NetworkAnalysis(normalized_urtn(complete_graph(8, directed=True), seed=0))
    >>> with compute_events() as events:
    ...     _ = handle.diameter
    >>> events.counts["arrival_matrix"]
    1
    """
    recorder = TelemetryRecorder()
    with _telemetry_attach(recorder):
        yield ComputeEvents(recorder)


@dataclass(frozen=True, slots=True)
class PorAudit:
    """One Price-of-Randomness audit of an instance (Definitions 7–8).

    Attributes
    ----------
    r:
        Labels per edge the audit assumes (defaults to the instance's maximum
        per-edge label count).
    total_labels:
        The paper's cost measure ``Σ_e |L_e|`` of this instance.
    opt:
        The ``OPT`` value the ratio divides by (the constructive upper bound
        by default, making ``measured_por`` a conservative lower bound).
    static_diameter:
        Diameter ``d(G)`` of the underlying graph.
    preserves_reachability:
        Whether this instance satisfies ``T_reach`` (Definition 6).
    measured_por:
        ``m·r / OPT`` (Definition 8).
    theorem8_bound:
        The Theorem 8 upper bound ``2·d(G)·log n · m / (n − 1)``.
    """

    r: int
    total_labels: int
    opt: int
    static_diameter: int
    preserves_reachability: bool
    measured_por: float
    theorem8_bound: float


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class NetworkAnalysis:
    """Lazy, memoized analysis session over one :class:`TemporalGraph`.

    The handle never mutates the network (label data is immutable after
    construction), so its caches cannot go stale; :meth:`invalidate` exists
    for callers who want to force recomputation anyway.  Arrays returned by
    the artifact accessors are read-only views of the shared caches.
    """

    __slots__ = ("_network", "_cache")

    def __init__(self, network: TemporalGraph) -> None:
        if not isinstance(network, TemporalGraph):
            raise ConfigurationError(
                f"NetworkAnalysis wraps a TemporalGraph, got {type(network).__name__}"
            )
        self._network = network
        self.invalidate()

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cached artifact so the next access recomputes it."""
        # (artifact, key) -> value; key is None for whole-instance artifacts.
        self._cache: dict[tuple[str, Hashable], Any] = {}

    def _computed(self, artifact: str, start: float) -> None:
        """Report one artifact computation, begun at ``perf_counter() == start``."""
        recs = _telemetry_active()
        if recs:
            duration_ms = (time.perf_counter() - start) * 1e3
            for rec in recs:
                rec.counter(f"analysis.compute.{artifact}")
                rec.observe_ms(f"analysis.compute_ms.{artifact}", duration_ms)

    def _cache_hit(self, artifact: str) -> None:
        for rec in _telemetry_active():
            rec.counter(f"analysis.cache_hit.{artifact}")

    def _memo(self, artifact: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached ``(artifact, key)`` value, computing and reporting it once."""
        slot = (artifact, key)
        if slot in self._cache:
            self._cache_hit(artifact)
            return self._cache[slot]
        start = time.perf_counter()
        value = self._cache[slot] = compute()
        self._computed(artifact, start)
        return value

    def _matrix(self, artifact: str, sweep: Callable[..., np.ndarray]) -> np.ndarray:
        """The memoized all-pairs ``sweep`` result (read-only)."""
        return _read_only(self._memo(artifact, None, lambda: sweep(self._network)))

    def _rows(
        self,
        artifact: str,
        matrix_artifact: str,
        vertices: Sequence[int],
        sweep: Callable[..., np.ndarray],
    ) -> np.ndarray:
        """Rows of ``matrix_artifact`` for ``vertices`` (read-only).

        Sliced out of the cached full matrix when it exists (a hit on
        ``artifact``); otherwise the rows not seen yet run through one
        batched ``sweep`` and are memoized per vertex under ``artifact``.
        """
        n = self.n
        vertex_arr = as_vertex_array(vertices, n)
        matrix = self._cache.get((matrix_artifact, None))
        if matrix is not None:
            self._cache_hit(artifact)
            return _read_only(matrix[vertex_arr])
        wanted = dict.fromkeys(int(v) for v in vertex_arr)
        missing = [v for v in wanted if (artifact, v) not in self._cache]
        if missing:
            start = time.perf_counter()
            rows = sweep(self._network, missing)
            for vertex, row in zip(missing, rows):
                self._cache[(artifact, vertex)] = row
            self._computed(artifact, start)
        elif wanted:
            self._cache_hit(artifact)
        if vertex_arr.size == 0:
            return _read_only(np.empty((0, n), dtype=np.int64))
        return _read_only(
            np.stack([self._cache[(artifact, int(v))] for v in vertex_arr])
        )

    # ------------------------------------------------------------------ #
    # shared artifacts
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> TemporalGraph:
        """The temporal network this analysis session wraps."""
        return self._network

    @property
    def n(self) -> int:
        """Number of vertices of the underlying graph."""
        return self._network.n

    def arrival_matrix(self) -> np.ndarray:
        """The full ``(n, n)`` earliest-arrival matrix (read-only, cached).

        Entry ``[s, v]`` is δ(s, v): 0 on the diagonal,
        :data:`~repro.types.UNREACHABLE` when no journey exists.  Computed by
        one batched sweep on first access; every other all-pairs quantity of
        the handle is a reduction of this array.
        """
        return self._matrix("arrival_matrix", earliest_arrival_matrix)

    def eccentricities(self) -> np.ndarray:
        """Temporal eccentricity of every vertex: ``max_v δ(s, v)`` (read-only).

        The maximum includes unreachable targets, so a vertex that cannot
        reach the whole graph has eccentricity
        :data:`~repro.types.UNREACHABLE`.
        """
        return _read_only(
            self._memo(
                "eccentricities", None, lambda: eccentricities_of(self.arrival_matrix())
            )
        )

    def reachability(self) -> np.ndarray:
        """Boolean mask ``R[s, v]`` = "a journey from ``s`` to ``v`` exists".

        The diagonal is ``True`` (the empty journey).  Read-only, cached.
        Derived from the arrival matrix when it is cached, else one
        reach-only sweep (:func:`~repro.core.reachability.reachability_matrix`).
        """

        def compute() -> np.ndarray:
            if ("arrival_matrix", None) in self._cache:
                return self.arrival_matrix() < UNREACHABLE
            return reachability_matrix(self._network)

        return _read_only(self._memo("reachability", None, compute))

    @property
    def summary(self) -> DistanceSummary:
        """The bundled all-pairs statistics, from one shared sweep (cached)."""
        return self._memo(
            "summary",
            None,
            lambda: distance_summary(
                self.arrival_matrix(), self.eccentricities(), self.reachability()
            ),
        )

    def streamed_distance_summary(
        self, *, tile_size: int | None = None, direction: str = "forward"
    ) -> DistanceSummary:
        """:attr:`summary` in ``O(n · tile_size)`` memory, bit-identical.

        Runs :func:`repro.core.blocked_sweeps.blocked_sweep_summary` over
        tiles of ``tile_size`` sources (``direction="forward"``) or targets
        (``"reverse"``); the dense matrix is never materialized and the
        other artifacts are left untouched.  ``tile_size=None`` uses
        :data:`~repro.core.blocked_sweeps.DEFAULT_TILE_SIZE`.  Cached per
        ``(direction, resolved width)``, so ``None`` and the default width,
        or two widths past ``n``, share one sweep.
        """
        width = resolve_tile_size(tile_size, self.n)
        return self._memo(
            "streamed_summary",
            (str(direction), width),
            lambda: blocked_sweep_summary(
                self._network, tile_size=width, direction=direction
            ).summary,
        )

    # ------------------------------------------------------------------ #
    # derived scalar views
    # ------------------------------------------------------------------ #
    @property
    def diameter(self) -> int:
        """The temporal diameter ``max_{s,t} δ(s, t)`` of this instance.

        Definition 5 defines the Temporal Diameter of the *random* clique as
        the expectation of this quantity; the Monte-Carlo layer averages this
        per-instance value.  Returns :data:`~repro.types.UNREACHABLE` when
        some ordered pair has no journey.
        """
        return self.summary.diameter

    @property
    def radius(self) -> int:
        """The minimum temporal eccentricity over all vertices."""
        return self.summary.radius

    @property
    def average_distance(self) -> float:
        """Mean δ(s, t) over ordered pairs ``s ≠ t`` with a journey (else nan)."""
        return self.summary.average_distance

    @property
    def reachable_fraction(self) -> float:
        """Fraction of ordered pairs ``s ≠ t`` connected by a journey.

        A count over :meth:`reachability`, so a fresh handle runs one
        reach-only sweep and writes no arrival times, and a handle with
        :attr:`summary` cached (which caches the mask) runs nothing.  The
        value equals ``summary.reachable_fraction`` bit for bit.  1.0 for
        ``n ≤ 1``.
        """
        n = self.n
        if n <= 1:
            return 1.0
        pairs = int(np.count_nonzero(self.reachability())) - n
        return pairs / float(n * (n - 1))

    @property
    def is_temporally_connected(self) -> bool:
        """Whether every ordered pair of vertices is connected by a journey.

        With ``reachability()`` cached (as it is whenever ``summary`` is) or
        ``arrival_matrix()`` cached, the cached mask or matrix answers and
        nothing new is computed.  Otherwise
        :func:`~repro.core.reachability.is_temporally_connected` decides,
        memoized as ``temporally_connected``: its sweep stops at the first
        vertex whose final row misses a source, and its partial bitset is
        never cached.
        """
        cached = self._cache
        if ("reachability", None) in cached:
            return bool(self.reachability().all())
        if ("arrival_matrix", None) in cached:
            return bool((self.arrival_matrix() < UNREACHABLE).all())
        return self._memo(
            "temporally_connected", None, lambda: temporally_connected(self._network)
        )

    # ------------------------------------------------------------------ #
    # row queries
    # ------------------------------------------------------------------ #
    def distances_from(self, sources: Sequence[int] | None = None) -> np.ndarray:
        """Temporal distances δ(s, v) for the requested sources (read-only).

        ``sources=None`` returns the full cached all-pairs matrix.  With an
        explicit source list the rows are sliced out of the cached matrix when
        it exists; otherwise one batched sweep over just those sources is run
        (and its rows memoized), so a narrow query never pays for all ``n``
        sources.
        """
        if sources is None:
            return self.arrival_matrix()
        return self._rows(
            "source_rows", "arrival_matrix", sources, earliest_arrival_matrix
        )

    def distance(self, source: int, target: int) -> int:
        """Temporal distance δ(source, target) (:data:`~repro.types.UNREACHABLE`
        when no journey exists).

        Served from the cached all-pairs matrix when available; otherwise one
        memoized single-source sweep.
        """
        (target,) = as_vertex_array([target], self.n)
        return int(self.distances_from([source])[0, target])

    # ------------------------------------------------------------------ #
    # target-side queries (reverse sweeps)
    # ------------------------------------------------------------------ #
    def departure_matrix(self) -> np.ndarray:
        """The full ``(n, n)`` latest-departure matrix (read-only, cached).

        Entry ``[t, v]`` is the latest label a journey ``v → t`` can start
        with and still arrive by the lifetime (``lifetime + 1`` on the
        diagonal, :data:`~repro.types.NEVER` when no journey exists).
        Computed by one batched *reverse* sweep over the time-reversed CSR
        layout on first access; entirely independent of the forward caches.
        """
        return self._matrix("departure_matrix", latest_departure_matrix)

    def departures_to(self, targets: Sequence[int] | None = None) -> np.ndarray:
        """Latest departures towards the requested targets (read-only).

        ``targets=None`` returns the full cached departure matrix.  With an
        explicit target list the rows are sliced out of the cached matrix when
        it exists; otherwise one batched reverse sweep over just those targets
        is run (and its rows memoized), so a narrow target-side query never
        pays for all ``n`` targets — and never triggers a forward sweep.
        """
        if targets is None:
            return self.departure_matrix()
        return self._rows(
            "target_columns", "departure_matrix", targets, latest_departure_matrix
        )

    def latest_departure(self, source: int, target: int) -> int:
        """Latest departure of a journey ``source → target``
        (:data:`~repro.types.NEVER` when no journey exists).

        Served from the cached departure matrix when available; otherwise one
        memoized single-target reverse sweep.
        """
        (source,) = as_vertex_array([source], self.n)
        return int(self.departures_to([target])[0, source])

    def distances_to(self, targets: Sequence[int] | None = None) -> np.ndarray:
        """Reverse temporal distances to the requested targets (read-only).

        Row ``i``, entry ``v`` is ``lifetime + 1 − departure(v, targets[i])``
        — how close to the deadline a journey from ``v`` can leave and still
        make it; 0 on the target itself, :data:`~repro.types.UNREACHABLE`
        when no journey exists.  Derived from :meth:`departures_to` without
        any extra sweep, so a single-target call costs exactly one reverse
        sweep and no forward pass.
        """
        departures = self.departures_to(targets)
        horizon = np.int64(self._network.lifetime + 1)
        return _read_only(
            np.where(departures == NEVER, UNREACHABLE, horizon - departures)
        )

    def reverse_reachable_set(self, target: int) -> np.ndarray:
        """Vertices with a journey *to* ``target`` (including the target).

        One memoized reverse sweep — the "who can influence ``target``" query
        never pays for an all-pairs forward pass.
        """
        departures = self.departures_to([int(target)])[0]
        return np.flatnonzero(departures > NEVER)

    # ------------------------------------------------------------------ #
    # temporal centrality (one shared pass over the arrival structure)
    # ------------------------------------------------------------------ #
    def _centrality(self, measure: str) -> np.ndarray:
        family = self._memo(
            "centrality",
            None,
            lambda: centrality_arrays(self.arrival_matrix(), self.reachability()),
        )
        return _read_only(family[measure])

    def closeness(self) -> np.ndarray:
        """Temporal closeness of every vertex (read-only ``float64``).

        The reciprocal of the mean temporal distance from each vertex to the
        vertices it can reach; 0.0 for vertices that reach nothing.
        """
        return self._centrality("closeness")

    def harmonic_closeness(self) -> np.ndarray:
        """Temporal harmonic closeness of every vertex (read-only, in [0, 1]).

        ``H(u) = (1/(n−1)) Σ_{t ≠ u} 1/δ(u, t)`` with ``1/∞ = 0`` for
        unreachable targets.
        """
        return self._centrality("harmonic")

    def influence_counts(self) -> np.ndarray:
        """Number of vertices ``t ≠ u`` temporally reachable from each ``u``."""
        return self._centrality("influence")

    def reach_counts(self) -> np.ndarray:
        """Number of vertices ``s ≠ v`` with a journey to each ``v``."""
        return self._centrality("reach")

    # ------------------------------------------------------------------ #
    # reachability preservation (Definition 6)
    # ------------------------------------------------------------------ #
    def preserves_reachability(self) -> bool:
        """The paper's ``T_reach`` property (Definition 6), memoized.

        True when, for every ordered pair ``(u, v)``, a journey exists in
        ``(G, L)`` exactly when a path exists in the underlying graph ``G`` —
        i.e. the temporal reachability mask equals the static one
        (:func:`~repro.core.reachability.static_reachability_matrix`, the
        closure cached on the graph, so handles on networks over one graph
        compute it once; the memo keeps the comparison).  (A
        journey can only use labelled edges of ``G``, so a journey without a
        path would mean label data inconsistent with the graph, which the
        constructor forbids; the comparison checks both directions anyway.)

        With ``reachability()`` or ``arrival_matrix()`` cached, the cached
        mask is compared.  Otherwise
        :func:`~repro.core.reachability.preserves_reachability` decides: its
        sweep stops at the first vertex whose final row misses a source, and
        its partial bitset is never cached as ``reachability``.
        """

        def compute() -> bool:
            cached = self._cache
            if ("reachability", None) in cached or ("arrival_matrix", None) in cached:
                return bool(
                    np.array_equal(
                        self.reachability(),
                        static_reachability_matrix(self._network.graph),
                    )
                )
            return reachability_preserved(self._network)

        return self._memo("static_reachability", None, compute)

    # ------------------------------------------------------------------ #
    # expansion process (Algorithm 1) and PoR audits (Theorems 7–8)
    # ------------------------------------------------------------------ #
    def expansion(
        self,
        source: int,
        target: int,
        parameters: ExpansionParameters | None = None,
    ) -> ExpansionResult:
        """Run Algorithm 1 between ``source`` and ``target`` (memoized).

        Repeated calls with the same arguments return the cached
        :class:`~repro.core.expansion.ExpansionResult` (the algorithm is
        deterministic given the instance), so report builders can re-read the
        layer traces for free.
        """
        source, target = int(source), int(target)
        return self._memo(
            "expansion",
            (source, target, parameters),
            lambda: expansion_process(self._network, source, target, parameters),
        )

    def por_audit(self, r: int | None = None, *, opt: int | None = None) -> PorAudit:
        """Price-of-Randomness audit of this instance (memoized per arguments).

        Parameters
        ----------
        r:
            Labels per edge to charge the random assignment for; defaults to
            the instance's maximum per-edge label count.
        opt:
            The ``OPT`` denominator; defaults to the constructive upper bound
            :func:`repro.core.price_of_randomness.opt_labels_upper_bound` at
            the instance's lifetime, which makes ``measured_por`` a
            conservative lower bound on the true PoR.

        Raises
        ------
        repro.exceptions.GraphError
            If the underlying graph is disconnected (OPT is undefined).
        repro.exceptions.ConfigurationError
            If no ``opt`` is given and the lifetime is too short for the
            constructive bound.
        """

        def audit() -> PorAudit:
            network = self._network
            if r is None:
                counts = network.label_count_per_edge()
                resolved_r = int(counts.max()) if counts.size else 0
            else:
                resolved_r = int(r)
            if resolved_r < 1:
                raise ConfigurationError(
                    "por_audit needs at least one label per edge (r >= 1); "
                    "this instance has none and no explicit r was given"
                )
            graph = network.graph
            opt_value = (
                int(opt)
                if opt is not None
                else opt_labels_upper_bound(graph, network.lifetime)
            )
            d = static_diameter(graph)
            return PorAudit(
                r=resolved_r,
                total_labels=network.total_labels,
                opt=opt_value,
                static_diameter=d,
                preserves_reachability=self.preserves_reachability(),
                measured_por=price_of_randomness(graph, resolved_r, opt=opt_value),
                theorem8_bound=por_upper_bound_theorem8(network.n, network.m, d),
            )

        return self._memo("por_audit", (r, opt), audit)

    # ------------------------------------------------------------------ #
    # derived analyses
    # ------------------------------------------------------------------ #
    def restricted_to_max_label(self, max_label: int) -> "NetworkAnalysis":
        """Analysis of the labels-``≤ max_label`` subnetwork (Theorem 5).

        When this handle's arrival matrix is already cached the child's is
        derived in O(n²) without a sweep: labels along a journey strictly
        increase, so every label on a foremost journey is at most its arrival
        time — hence ``δ_k(s, t) = δ(s, t)`` whenever ``δ(s, t) ≤ k``, and
        the pair is unreachable in the restriction otherwise.
        """
        child = NetworkAnalysis(self._network.restricted_to_max_label(max_label))
        matrix = self._cache.get(("arrival_matrix", None))
        if matrix is not None:
            child._cache[("arrival_matrix", None)] = np.where(
                matrix <= int(max_label), matrix, UNREACHABLE
            )
        return child

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        cached = list(dict.fromkeys(artifact for artifact, _ in self._cache))
        return (
            f"NetworkAnalysis(n={self.n}, lifetime={self._network.lifetime}, "
            f"cached={cached})"
        )
