"""repro — reproduction of *Ephemeral Networks with Random Availability of Links*.

A production-quality Python library reproducing Akrida, Gąsieniec, Mertzios &
Spirakis (SPAA 2014): random ephemeral temporal networks, their temporal
diameter, the Expansion Process algorithm, reachability guarantees and the
Price of Randomness — together with the Monte-Carlo experiment harness that
regenerates every quantitative claim of the paper.

Quickstart
----------
>>> from repro import NetworkAnalysis, complete_graph, normalized_urtn
>>> clique = complete_graph(64, directed=True)
>>> analysis = NetworkAnalysis(normalized_urtn(clique, seed=0))
>>> analysis.diameter <= 64 and analysis.is_temporally_connected
True

The public API re-exports the most commonly used pieces; the subpackages
(:mod:`repro.core`, :mod:`repro.graphs`, :mod:`repro.montecarlo`,
:mod:`repro.engine`, :mod:`repro.scenarios`, :mod:`repro.analysis`,
:mod:`repro.experiments`, …) expose the full surface.
"""

from ._version import __version__
from .exceptions import (
    CheckpointError,
    ConfigurationError,
    ExperimentError,
    GraphError,
    InvalidEdgeError,
    InvalidVertexError,
    JourneyError,
    LabelingError,
    LifetimeError,
    ReproError,
    SerializationError,
    UnreachableVertexError,
)
from .types import NEVER, UNREACHABLE, Journey, TimeEdge
from .graphs import (
    StaticGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from .graphs.properties import diameter, is_connected
from .core import (
    BroadcastResult,
    ExpansionParameters,
    ExpansionResult,
    TemporalGraph,
    box_assignment,
    earliest_arrival_matrix,
    earliest_arrival_times,
    expansion_process,
    flood_broadcast,
    foremost_journey,
    is_temporally_connected,
    latest_departure,
    latest_departure_matrix,
    latest_departure_times,
    minimal_labels_for_reachability,
    normalized_urtn,
    opt_labels_star,
    por_upper_bound_theorem8,
    preserves_reachability,
    price_of_randomness,
    push_phone_call_broadcast,
    reachability_probability,
    reverse_reachable_set,
    temporal_closeness,
    temporal_diameter,
    temporal_distance,
    temporal_distance_matrix,
    temporal_distance_summary,
    temporal_harmonic_closeness,
    temporal_influence_counts,
    temporal_reach_counts,
    tree_broadcast_assignment,
    uniform_random_labels,
    BlockedSweepResult,
    blocked_sweep_summary,
    streamed_distance_summary,
    streamed_reachable_fraction,
)
from . import telemetry
from .core import kernels
from .analysis_api import (
    ComputeEvents,
    DistanceSummary,
    NetworkAnalysis,
    PorAudit,
    compute_events,
)
from .montecarlo import (
    Experiment,
    MonteCarloRunner,
    ParameterSweep,
    run_trials,
    summarize,
)
from .engine import MultiprocessExecutor, SerialExecutor, run_sharded
from .scenarios import (
    GraphFamilySpec,
    LabelModelSpec,
    MetricSuite,
    Scenario,
    ScenarioRun,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from .experiments import write_experiments_markdown

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "InvalidVertexError",
    "InvalidEdgeError",
    "LabelingError",
    "LifetimeError",
    "JourneyError",
    "UnreachableVertexError",
    "ExperimentError",
    "ConfigurationError",
    "SerializationError",
    "CheckpointError",
    # value types
    "UNREACHABLE",
    "NEVER",
    "TimeEdge",
    "Journey",
    # static graphs
    "StaticGraph",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "complete_bipartite_graph",
    "erdos_renyi_graph",
    "diameter",
    "is_connected",
    # temporal core
    "TemporalGraph",
    "uniform_random_labels",
    "normalized_urtn",
    "box_assignment",
    "tree_broadcast_assignment",
    "earliest_arrival_matrix",
    "earliest_arrival_times",
    "foremost_journey",
    "temporal_distance",
    "temporal_distance_matrix",
    "temporal_distance_summary",
    "temporal_diameter",
    "is_temporally_connected",
    "preserves_reachability",
    # reverse (target-side) sweeps and temporal centrality
    "latest_departure_times",
    "latest_departure_matrix",
    "latest_departure",
    "reverse_reachable_set",
    "temporal_closeness",
    "temporal_harmonic_closeness",
    "temporal_influence_counts",
    "temporal_reach_counts",
    # out-of-core blocked sweeps (O(n·tile) memory, bit-identical to dense)
    "BlockedSweepResult",
    "blocked_sweep_summary",
    "streamed_distance_summary",
    "streamed_reachable_fraction",
    "ExpansionParameters",
    "ExpansionResult",
    "expansion_process",
    "BroadcastResult",
    "flood_broadcast",
    "push_phone_call_broadcast",
    "reachability_probability",
    "minimal_labels_for_reachability",
    "price_of_randomness",
    "opt_labels_star",
    "por_upper_bound_theorem8",
    # the per-instance analysis handle
    "ComputeEvents",
    "DistanceSummary",
    "NetworkAnalysis",
    "PorAudit",
    "compute_events",
    # telemetry (spans, counters, sinks, the layered profile report)
    "telemetry",
    # the sweep kernel
    "kernels",
    # monte carlo
    "Experiment",
    "MonteCarloRunner",
    "ParameterSweep",
    "run_trials",
    "summarize",
    # parallel execution engine
    "SerialExecutor",
    "MultiprocessExecutor",
    "run_sharded",
    # declarative scenarios
    "GraphFamilySpec",
    "LabelModelSpec",
    "MetricSuite",
    "Scenario",
    "ScenarioRun",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    # experiments
    "run_experiments",
    "write_experiments_markdown",
]


def __getattr__(name: str):
    # ``run_experiments`` lives in ``repro.experiments.registry``, which is
    # imported on first use so ``python -m repro.experiments.registry`` runs
    # without runpy's "found in sys.modules" warning.
    if name == "run_experiments":
        from .experiments import registry

        return registry.run_experiments
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
