"""The :class:`NetworkAnalysis` handle — the single per-instance compute API.

Every quantity the paper studies on one sampled instance — temporal diameter
(Definition 5 / Theorem 4), eccentricities, reachability fraction, the
``T_reach`` predicate (Definition 6), expansion-process runs (Theorem 3),
Price of Randomness audits (Theorems 7–8) — is a view over the *same*
all-pairs arrival structure produced by one batched
:func:`repro.core.journeys.earliest_arrival_matrix` sweep.  The handle makes
that sharing explicit: construct it once per instance and every quantity is a
cached property or memoized method, so a multi-metric workload costs **one**
sweep instead of one sweep per metric.

>>> from repro import NetworkAnalysis, complete_graph, normalized_urtn
>>> analysis = NetworkAnalysis(normalized_urtn(complete_graph(32, directed=True), seed=0))
>>> analysis.diameter <= 32 and analysis.is_temporally_connected
True

Shared artifacts and what they feed
-----------------------------------
``arrival_matrix()``
    The ``(n, n)`` earliest-arrival matrix — computed at most once, and the
    substrate of everything below.
``eccentricities()`` → ``diameter`` / ``radius``
    Row maxima of the matrix.
``reachability()`` → ``reachable_fraction`` / ``is_temporally_connected`` /
``preserves_reachability()``
    The boolean journey-existence mask (plus one static BFS pass for the
    ``T_reach`` comparison).
``summary``
    The bundled :class:`DistanceSummary` (diameter, radius, average distance,
    reachable fraction).
``distances_from(sources)`` / ``distance(source, target)``
    Row queries, answered from the cached matrix when it exists and from
    memoized single-batch sweeps otherwise.
``departure_matrix()``
    The ``(n, n)`` latest-departure matrix — one batched *reverse* sweep
    over the time-reversed CSR layout; independent of the forward cache.
``departures_to(targets)`` / ``distances_to(targets)`` /
``reverse_reachable_set(target)``
    Target-side queries, answered from the cached departure matrix when it
    exists and from memoized single-target reverse sweeps otherwise — a
    single-target question never pays for an all-pairs forward pass.
``closeness()`` / ``harmonic_closeness()`` / ``influence_counts()`` /
``reach_counts()``
    The temporal-centrality family, all derived together in one pass over
    the arrival structure.
``expansion(source, target)`` / ``por_audit()``
    Algorithm 1 traces and Theorem 7/8 audits, memoized per argument set.

Derived analyses
----------------
:meth:`NetworkAnalysis.restricted_to_max_label` returns a child handle over
the labels-``≤ k`` subnetwork (the Theorem 5 construction).  When the parent's
arrival matrix is already cached the child's is *derived* without a sweep:
every label on a foremost journey is bounded by its arrival time (labels
strictly increase), so ``δ_k(s, t) = δ(s, t)`` when ``δ(s, t) ≤ k`` and the
pair is unreachable in the restriction otherwise.

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
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..types import NEVER, UNREACHABLE, as_vertex_array
from ..core import kernels
from ..core.journeys import earliest_arrival_matrix, earliest_arrival_times
from ..core.reverse_journeys import latest_departure_matrix, latest_departure_times
from ..core.temporal_graph import TemporalGraph
from ..telemetry import TelemetryRecorder, attach as _telemetry_attach
from ..telemetry import active as _telemetry_active

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.expansion import ExpansionParameters, ExpansionResult

__all__ = [
    "ComputeEvents",
    "DistanceSummary",
    "NetworkAnalysis",
    "PorAudit",
    "compute_events",
]

#: Artifact names reported to the telemetry probes, in dependency order.
ARTIFACTS = (
    "arrival_matrix",
    "eccentricities",
    "reachability",
    "summary",
    "streamed_summary",
    "static_reachability",
    "source_rows",
    "departure_matrix",
    "target_columns",
    "centrality",
    "expansion",
    "por_audit",
)


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
class DistanceSummary:
    """All-pairs distance statistics derived from one batched sweep.

    Attributes
    ----------
    diameter:
        ``max_{s,t} δ(s, t)``; :data:`~repro.types.UNREACHABLE` if some
        ordered pair has no journey.
    radius:
        The minimum temporal eccentricity over all vertices.
    average_distance:
        Mean δ(s, t) over ordered pairs ``s ≠ t`` with a journey, or ``nan``
        when no such pair exists.
    reachable_fraction:
        Fraction of ordered pairs ``s ≠ t`` connected by a journey.
    """

    diameter: int
    radius: int
    average_distance: float
    reachable_fraction: float


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

    ``kernel_backend`` pins every sweep the handle runs to one named
    :mod:`repro.core.kernels` backend (strict: an unusable name raises at the
    first sweep); the default ``None`` uses the registry's ambient selection.
    """

    __slots__ = (
        "_network",
        "_kernel_backend",
        "_matrix",
        "_ecc",
        "_reach",
        "_summary",
        "_streamed",
        "_preserves",
        "_source_rows",
        "_rev_matrix",
        "_target_cols",
        "_centrality",
        "_expansions",
        "_por_audits",
    )

    def __init__(
        self, network: TemporalGraph, *, kernel_backend: str | None = None
    ) -> None:
        if not isinstance(network, TemporalGraph):
            raise ConfigurationError(
                f"NetworkAnalysis wraps a TemporalGraph, got {type(network).__name__}"
            )
        if kernel_backend is not None:
            # Fail on typos at construction time; availability (warm-up) is
            # still checked strictly at the first sweep.
            kernels.get_backend(kernel_backend)
        self._network = network
        self._kernel_backend = kernel_backend
        self.invalidate()

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cached artifact so the next access recomputes it."""
        self._matrix: np.ndarray | None = None
        self._ecc: np.ndarray | None = None
        self._reach: np.ndarray | None = None
        self._summary: DistanceSummary | None = None
        self._streamed: dict[tuple, DistanceSummary] = {}
        self._preserves: bool | None = None
        self._source_rows: dict[int, np.ndarray] = {}
        self._rev_matrix: np.ndarray | None = None
        self._target_cols: dict[int, np.ndarray] = {}
        self._centrality: dict[str, np.ndarray] | None = None
        self._expansions: dict[tuple, "ExpansionResult"] = {}
        self._por_audits: dict[tuple, PorAudit] = {}

    def _computed(self, artifact: str, start: float) -> None:
        """Report one actual artifact computation to the telemetry recorders.

        ``start`` is the ``time.perf_counter()`` reading taken just before the
        computation; its cost is negligible next to any artifact compute, so
        the timestamp is taken unconditionally and only turned into a timing
        record when recorders are active.
        """
        recs = _telemetry_active()
        if recs:
            duration_ms = (time.perf_counter() - start) * 1e3
            for rec in recs:
                rec.counter(f"analysis.compute.{artifact}")
                rec.observe_ms(f"analysis.compute_ms.{artifact}", duration_ms)

    def _cache_hit(self, artifact: str) -> None:
        for rec in _telemetry_active():
            rec.counter(f"analysis.cache_hit.{artifact}")

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
        if self._matrix is None:
            start = time.perf_counter()
            self._matrix = earliest_arrival_matrix(
                self._network, backend=self._kernel_backend
            )
            self._computed("arrival_matrix", start)
        else:
            self._cache_hit("arrival_matrix")
        return _read_only(self._matrix)

    def eccentricities(self) -> np.ndarray:
        """Temporal eccentricity of every vertex: ``max_v δ(s, v)`` (read-only).

        The maximum includes unreachable targets, so a vertex that cannot
        reach the whole graph has eccentricity
        :data:`~repro.types.UNREACHABLE`.  The diagonal entries are 0 — the
        minimum possible value, since every off-diagonal arrival is a label
        ``≥ 1`` — so the row maximum needs no diagonal masking (and no O(n²)
        matrix copy).
        """
        if self._ecc is None:
            start = time.perf_counter()
            if self.n <= 1:
                self._ecc = np.zeros(self.n, dtype=np.int64)
            else:
                self._ecc = np.asarray(self.arrival_matrix().max(axis=1))
            self._computed("eccentricities", start)
        else:
            self._cache_hit("eccentricities")
        return _read_only(self._ecc)

    def reachability(self) -> np.ndarray:
        """Boolean mask ``R[s, v]`` = "a journey from ``s`` to ``v`` exists".

        The diagonal is ``True`` (the empty journey).  Read-only, cached.
        """
        if self._reach is None:
            start = time.perf_counter()
            self._reach = self.arrival_matrix() < UNREACHABLE
            self._computed("reachability", start)
        else:
            self._cache_hit("reachability")
        return _read_only(self._reach)

    @property
    def summary(self) -> DistanceSummary:
        """The bundled all-pairs statistics, from one shared sweep (cached)."""
        if self._summary is not None:
            self._cache_hit("summary")
            return self._summary
        start = time.perf_counter()
        n = self.n
        if n <= 1:
            self._summary = DistanceSummary(
                diameter=0, radius=0, average_distance=0.0, reachable_fraction=1.0
            )
        else:
            matrix = self.arrival_matrix()
            ecc = self.eccentricities()
            reach_mask = self.reachability().copy()
            np.fill_diagonal(reach_mask, False)
            reachable_pairs = int(reach_mask.sum())
            if reachable_pairs:
                average = float(matrix[reach_mask].mean())
            else:
                average = float("nan")
            self._summary = DistanceSummary(
                diameter=int(ecc.max()),
                radius=int(ecc.min()),
                average_distance=average,
                reachable_fraction=reachable_pairs / float(n * (n - 1)),
            )
        self._computed("summary", start)
        return self._summary

    def streamed_distance_summary(
        self, *, tile_size: int | None = None, direction: str = "forward"
    ) -> DistanceSummary:
        """:attr:`summary` in ``O(n · tile_size)`` memory, bit-identical.

        Runs the out-of-core blocked sweep engine
        (:mod:`repro.core.blocked_sweeps`): the sweep is tiled over blocks of
        ``tile_size`` sources (``direction="forward"``) or targets
        (``"reverse"``), each tile runs through the handle's pinned kernel
        backend, and the tile's contribution is streamed into exact mergeable
        accumulators — the dense ``(n, n)`` matrix is never materialized and
        the handle's artifact cache is left untouched.  The result is cached
        per ``(direction, tile_size)``.

        ``tile_size=None`` uses the ambient default
        (:func:`repro.core.blocked_sweeps.default_tile_size`, the CLI's
        ``--tile-size`` flag), else
        :data:`~repro.core.blocked_sweeps.DEFAULT_TILE_SIZE`.
        """
        from ..core.blocked_sweeps import blocked_sweep_summary

        key = (
            str(direction),
            None if tile_size is None else int(tile_size),
        )
        cached = self._streamed.get(key)
        if cached is not None:
            self._cache_hit("streamed_summary")
            return cached
        start = time.perf_counter()
        result = blocked_sweep_summary(
            self._network,
            tile_size=tile_size,
            direction=direction,
            backend=self._kernel_backend,
        )
        self._streamed[key] = result.summary
        self._computed("streamed_summary", start)
        return result.summary

    def streamed_reachable_fraction(
        self, *, tile_size: int | None = None, direction: str = "forward"
    ) -> float:
        """:attr:`reachable_fraction` in ``O(n · tile_size)`` memory.

        Bit-identical to the dense value; see
        :meth:`streamed_distance_summary` for the tiling model.
        """
        return self.streamed_distance_summary(
            tile_size=tile_size, direction=direction
        ).reachable_fraction

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
        """Fraction of ordered pairs ``s ≠ t`` connected by a journey."""
        return self.summary.reachable_fraction

    @property
    def is_temporally_connected(self) -> bool:
        """Whether every ordered pair of vertices is connected by a journey."""
        if self.n <= 1:
            return True
        return self.summary.diameter < UNREACHABLE

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
        n = self.n
        source_arr = as_vertex_array(sources, n)
        if self._matrix is not None:
            self._cache_hit("source_rows")
            return _read_only(self._matrix[source_arr])
        wanted = dict.fromkeys(int(s) for s in source_arr)
        missing = [s for s in wanted if s not in self._source_rows]
        if missing:
            start = time.perf_counter()
            rows = earliest_arrival_matrix(
                self._network, missing, backend=self._kernel_backend
            )
            for index, source in enumerate(missing):
                self._source_rows[source] = rows[index]
            self._computed("source_rows", start)
        elif wanted:
            self._cache_hit("source_rows")
        if source_arr.size == 0:
            return np.empty((0, n), dtype=np.int64)
        stacked = np.stack(
            [self._source_rows[int(s)] for s in source_arr], axis=0
        )
        return _read_only(stacked)

    def distance(self, source: int, target: int) -> int:
        """Temporal distance δ(source, target) (:data:`~repro.types.UNREACHABLE`
        when no journey exists).

        Served from the cached all-pairs matrix when available; otherwise one
        memoized single-source sweep.
        """
        n = self.n
        target = int(as_vertex_array([target], n)[0])
        source = int(as_vertex_array([source], n)[0])
        if self._matrix is not None:
            self._cache_hit("source_rows")
            return int(self._matrix[source, target])
        row = self._source_rows.get(source)
        if row is None:
            start = time.perf_counter()
            row = earliest_arrival_times(
                self._network, source, backend=self._kernel_backend
            )
            self._source_rows[source] = row
            self._computed("source_rows", start)
        else:
            self._cache_hit("source_rows")
        return int(row[target])

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
        if self._rev_matrix is None:
            start = time.perf_counter()
            self._rev_matrix = latest_departure_matrix(
                self._network, backend=self._kernel_backend
            )
            self._computed("departure_matrix", start)
        else:
            self._cache_hit("departure_matrix")
        return _read_only(self._rev_matrix)

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
        n = self.n
        target_arr = as_vertex_array(targets, n)
        if self._rev_matrix is not None:
            self._cache_hit("target_columns")
            return _read_only(self._rev_matrix[target_arr])
        wanted = dict.fromkeys(int(t) for t in target_arr)
        missing = [t for t in wanted if t not in self._target_cols]
        if missing:
            start = time.perf_counter()
            rows = latest_departure_matrix(
                self._network, missing, backend=self._kernel_backend
            )
            for index, target in enumerate(missing):
                self._target_cols[target] = rows[index]
            self._computed("target_columns", start)
        elif wanted:
            self._cache_hit("target_columns")
        if target_arr.size == 0:
            return np.empty((0, n), dtype=np.int64)
        stacked = np.stack(
            [self._target_cols[int(t)] for t in target_arr], axis=0
        )
        return _read_only(stacked)

    def latest_departure(self, source: int, target: int) -> int:
        """Latest departure of a journey ``source → target``
        (:data:`~repro.types.NEVER` when no journey exists).

        Served from the cached departure matrix when available; otherwise one
        memoized single-target reverse sweep.
        """
        n = self.n
        source = int(as_vertex_array([source], n)[0])
        target = int(as_vertex_array([target], n)[0])
        if self._rev_matrix is not None:
            self._cache_hit("target_columns")
            return int(self._rev_matrix[target, source])
        row = self._target_cols.get(target)
        if row is None:
            start = time.perf_counter()
            row = latest_departure_times(
                self._network, target, backend=self._kernel_backend
            )
            self._target_cols[target] = row
            self._computed("target_columns", start)
        else:
            self._cache_hit("target_columns")
        return int(row[source])

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
    def _centrality_arrays(self) -> dict[str, np.ndarray]:
        if self._centrality is not None:
            self._cache_hit("centrality")
            return self._centrality
        start = time.perf_counter()
        n = self.n
        if n <= 1:
            self._centrality = {
                "closeness": np.zeros(n, dtype=np.float64),
                "harmonic": np.zeros(n, dtype=np.float64),
                "influence": np.zeros(n, dtype=np.int64),
                "reach": np.zeros(n, dtype=np.int64),
            }
        else:
            matrix = self.arrival_matrix()
            off_diagonal = self.reachability().copy()
            np.fill_diagonal(off_diagonal, False)
            counts_out = off_diagonal.sum(axis=1)
            distance_sums = np.where(off_diagonal, matrix, 0).sum(axis=1)
            closeness = np.where(
                distance_sums > 0,
                counts_out / np.maximum(distance_sums, 1),
                0.0,
            )
            inverse = np.zeros((n, n), dtype=np.float64)
            inverse[off_diagonal] = 1.0 / matrix[off_diagonal]
            self._centrality = {
                "closeness": closeness.astype(np.float64),
                "harmonic": inverse.sum(axis=1) / float(n - 1),
                "influence": counts_out.astype(np.int64),
                "reach": off_diagonal.sum(axis=0).astype(np.int64),
            }
        self._computed("centrality", start)
        return self._centrality

    def closeness(self) -> np.ndarray:
        """Temporal closeness of every vertex (read-only ``float64``).

        The reciprocal of the mean temporal distance from each vertex to the
        vertices it can reach; 0.0 for vertices that reach nothing.
        """
        return _read_only(self._centrality_arrays()["closeness"])

    def harmonic_closeness(self) -> np.ndarray:
        """Temporal harmonic closeness of every vertex (read-only, in [0, 1]).

        ``H(u) = (1/(n−1)) Σ_{t ≠ u} 1/δ(u, t)`` with ``1/∞ = 0`` for
        unreachable targets.
        """
        return _read_only(self._centrality_arrays()["harmonic"])

    def influence_counts(self) -> np.ndarray:
        """Number of vertices ``t ≠ u`` temporally reachable from each ``u``."""
        return _read_only(self._centrality_arrays()["influence"])

    def reach_counts(self) -> np.ndarray:
        """Number of vertices ``s ≠ v`` with a journey to each ``v``."""
        return _read_only(self._centrality_arrays()["reach"])

    # ------------------------------------------------------------------ #
    # reachability preservation (Definition 6)
    # ------------------------------------------------------------------ #
    def preserves_reachability(self) -> bool:
        """The paper's ``T_reach`` property (Definition 6), memoized.

        True when, for every ordered pair ``(u, v)``, a journey exists in
        ``(G, L)`` exactly when a path exists in the underlying graph ``G`` —
        i.e. the temporal reachability mask equals the static one.  (A journey
        can only use labelled edges of ``G``, so a journey without a path
        would mean label data inconsistent with the graph, which the
        constructor forbids; the comparison checks both directions anyway.)
        """
        if self._preserves is None:
            start = time.perf_counter()
            n = self.n
            if n <= 1:
                self._preserves = True
            else:
                self._preserves = bool(
                    np.array_equal(
                        self.reachability(), self._static_reachability_matrix()
                    )
                )
            self._computed("static_reachability", start)
        else:
            self._cache_hit("static_reachability")
        return self._preserves

    def _static_reachability_matrix(self) -> np.ndarray:
        """Boolean closure ``R[s, v]`` = "a static path from ``s`` to ``v``".

        All sources are advanced together: one dense adjacency matrix and one
        matmul per BFS level (float32, so the product runs on BLAS instead of
        NumPy's scalar integer loops), instead of ``n`` per-source
        Python-level BFS runs.  Levels are bounded by the static diameter, so
        the clique substrates of the Monte-Carlo workloads finish in one step.
        """
        graph = self._network.graph
        n = graph.n
        adjacency = np.zeros((n, n), dtype=np.float32)
        adjacency[graph.arc_tails, graph.arc_heads] = 1.0
        reach = np.eye(n, dtype=bool)
        frontier = reach
        while True:
            new = (frontier.astype(np.float32) @ adjacency > 0.0) & ~reach
            if not new.any():
                return reach
            reach |= new
            frontier = new

    # ------------------------------------------------------------------ #
    # expansion process (Algorithm 1) and PoR audits (Theorems 7–8)
    # ------------------------------------------------------------------ #
    def expansion(
        self,
        source: int,
        target: int,
        parameters: "ExpansionParameters | None" = None,
    ) -> "ExpansionResult":
        """Run Algorithm 1 between ``source`` and ``target`` (memoized).

        Repeated calls with the same arguments return the cached
        :class:`~repro.core.expansion.ExpansionResult` (the algorithm is
        deterministic given the instance), so report builders can re-read the
        layer traces for free.
        """
        from ..core.expansion import expansion_process

        key = (int(source), int(target), parameters)
        if key not in self._expansions:
            start = time.perf_counter()
            self._expansions[key] = expansion_process(
                self._network, int(source), int(target), parameters
            )
            self._computed("expansion", start)
        else:
            self._cache_hit("expansion")
        return self._expansions[key]

    def por_audit(self, r: int | None = None, *, opt: int | None = None) -> PorAudit:
        """Price-of-Randomness audit of this instance (memoized per arguments).

        Parameters
        ----------
        r:
            Labels per edge to charge the random assignment for; defaults to
            the instance's maximum per-edge label count.
        opt:
            The ``OPT`` denominator; defaults to the constructive upper bound
            :func:`repro.core.price_of_randomness.opt_labels_upper_bound`,
            which makes ``measured_por`` a conservative lower bound on the
            true PoR.

        Raises
        ------
        repro.exceptions.GraphError
            If the underlying graph is disconnected (OPT is undefined).
        """
        key = (r, opt)
        if key in self._por_audits:
            self._cache_hit("por_audit")
            return self._por_audits[key]

        from ..core.price_of_randomness import (
            opt_labels_upper_bound,
            por_upper_bound_theorem8,
            price_of_randomness,
        )
        from ..graphs.properties import diameter as static_diameter

        start = time.perf_counter()
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
        opt_value = int(opt) if opt is not None else opt_labels_upper_bound(graph)
        d = static_diameter(graph)
        self._por_audits[key] = PorAudit(
            r=resolved_r,
            total_labels=network.total_labels,
            opt=opt_value,
            static_diameter=d,
            preserves_reachability=self.preserves_reachability(),
            measured_por=price_of_randomness(graph, resolved_r, opt=opt_value),
            theorem8_bound=por_upper_bound_theorem8(network.n, network.m, d),
        )
        self._computed("por_audit", start)
        return self._por_audits[key]

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
        child = NetworkAnalysis(
            self._network.restricted_to_max_label(max_label),
            kernel_backend=self._kernel_backend,
        )
        if self._matrix is not None:
            child._matrix = np.where(
                self._matrix <= int(max_label), self._matrix, UNREACHABLE
            )
        return child

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        cached = [
            name
            for name, value in (
                ("arrival_matrix", self._matrix),
                ("eccentricities", self._ecc),
                ("reachability", self._reach),
                ("summary", self._summary),
                ("static_reachability", self._preserves),
                ("departure_matrix", self._rev_matrix),
                ("centrality", self._centrality),
            )
            if value is not None
        ]
        return (
            f"NetworkAnalysis(n={self.n}, lifetime={self._network.lifetime}, "
            f"cached={cached})"
        )
