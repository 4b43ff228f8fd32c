"""The paper's primary contribution: random ephemeral temporal networks.

This subpackage implements:

* :class:`TemporalGraph` — an ephemeral temporal network ``(G, L)``
  (Definition 1): an underlying static (di)graph plus a set of discrete time
  labels per edge, bounded by the *lifetime* ``a``;
* label assignment strategies (:mod:`repro.core.labeling`) — the uniform
  random single-label U-RTN of Definition 4, multi-label random assignments,
  and the deterministic constructions used as baselines (box assignment of
  Section 5, spanning-tree broadcast assignment);
* journey machinery (:mod:`repro.core.journeys`,
  :mod:`repro.core.distances`) — foremost journeys, temporal distances and the
  temporal diameter (Definitions 2–5), backed by the batched multi-source
  engine over the label-grouped CSR time-arc layout
  (:mod:`repro.core.timearc_csr`);
* the Expansion Process of Algorithm 1 (:mod:`repro.core.expansion`);
* the flooding dissemination protocol of §3.5 and the random phone-call
  baseline (:mod:`repro.core.dissemination`);
* reachability guarantees and the empirical ``r(n)``
  (:mod:`repro.core.guarantees`);
* the Price of Randomness (:mod:`repro.core.price_of_randomness`);
* lifetime-scaling analysis for Theorem 5 (:mod:`repro.core.lifetime`).

The per-instance distance, reachability and centrality free functions each
run one sweep and apply a pure core reduction of the arrival matrix.  Nothing
here imports :mod:`repro.analysis_api`; its memoizing ``NetworkAnalysis``
handle calls the same reductions.  Hold a handle when reading more than one
quantity (``docs/api.md`` has the migration table).
"""

from .temporal_graph import TemporalGraph
from .timearc_csr import TimeArcCSR, build_timearc_csr
from .reverse_timearc_csr import build_reverse_timearc_csr
from .labeling import (
    assign_deterministic_labels,
    box_assignment,
    normalized_urtn,
    tree_broadcast_assignment,
    uniform_random_labels,
)
from .journeys import (
    earliest_arrival_matrix,
    earliest_arrival_times,
    foremost_journey,
    foremost_journey_tree,
    temporal_distance,
)
from .reverse_journeys import (
    latest_departure,
    latest_departure_matrix,
    latest_departure_times,
    reverse_reachable_set,
)
from .centrality import (
    temporal_closeness,
    temporal_harmonic_closeness,
    temporal_influence_counts,
    temporal_reach_counts,
)
from .distances import (
    DistanceSummary,
    average_temporal_distance,
    temporal_diameter,
    temporal_distance_matrix,
    temporal_distance_summary,
    temporal_eccentricities,
    temporal_radius,
)
from .blocked_sweeps import (
    DEFAULT_TILE_SIZE,
    BlockedSummaryAccumulator,
    BlockedSweepResult,
    ExactDistanceMoments,
    blocked_sweep_summary,
    resolve_tile_size,
    streamed_distance_summary,
    streamed_reachable_fraction,
    summary_of_distance_matrix,
)
from .reachability import (
    is_temporally_connected,
    preserves_reachability,
    reachability_matrix,
    reachable_fraction,
    reachable_set,
)
from .expansion import ExpansionParameters, ExpansionResult, expansion_process
from .dissemination import (
    BroadcastResult,
    flood_broadcast,
    push_phone_call_broadcast,
)
from .guarantees import (
    minimal_labels_for_reachability,
    reachability_probability,
    two_split_journey_probability,
)
from .price_of_randomness import (
    opt_labels_lower_bound,
    opt_labels_star,
    opt_labels_upper_bound,
    por_upper_bound_theorem8,
    price_of_randomness,
)
from .lifetime import (
    prefix_connectivity_time,
    temporal_diameter_lower_bound_theorem5,
)

__all__ = [
    "TemporalGraph",
    "TimeArcCSR",
    "build_timearc_csr",
    "build_reverse_timearc_csr",
    "uniform_random_labels",
    "normalized_urtn",
    "box_assignment",
    "tree_broadcast_assignment",
    "assign_deterministic_labels",
    "earliest_arrival_matrix",
    "earliest_arrival_times",
    "foremost_journey",
    "foremost_journey_tree",
    "temporal_distance",
    "latest_departure_times",
    "latest_departure_matrix",
    "latest_departure",
    "reverse_reachable_set",
    "temporal_closeness",
    "temporal_harmonic_closeness",
    "temporal_influence_counts",
    "temporal_reach_counts",
    "DistanceSummary",
    "temporal_distance_matrix",
    "temporal_distance_summary",
    "temporal_diameter",
    "temporal_eccentricities",
    "temporal_radius",
    "average_temporal_distance",
    "DEFAULT_TILE_SIZE",
    "BlockedSummaryAccumulator",
    "BlockedSweepResult",
    "ExactDistanceMoments",
    "blocked_sweep_summary",
    "resolve_tile_size",
    "streamed_distance_summary",
    "streamed_reachable_fraction",
    "summary_of_distance_matrix",
    "reachability_matrix",
    "reachable_set",
    "reachable_fraction",
    "is_temporally_connected",
    "preserves_reachability",
    "ExpansionParameters",
    "ExpansionResult",
    "expansion_process",
    "BroadcastResult",
    "flood_broadcast",
    "push_phone_call_broadcast",
    "reachability_probability",
    "minimal_labels_for_reachability",
    "two_split_journey_probability",
    "price_of_randomness",
    "opt_labels_star",
    "opt_labels_lower_bound",
    "opt_labels_upper_bound",
    "por_upper_bound_theorem8",
    "prefix_connectivity_time",
    "temporal_diameter_lower_bound_theorem5",
]
