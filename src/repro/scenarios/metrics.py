"""Metric registry: what a scenario measures on each sampled instance.

Two kinds of metrics exist:

* **Trial metrics** (:data:`METRICS`) run inside a Monte-Carlo trial.  They
  receive a :class:`TrialContext` — the built graph, the sampled network, the
  sweep parameters, the trial generator, the metrics accumulated so far and
  the label model's extras — and return a flat mapping of metric name to
  float.  Metrics run in suite order and may consume the trial RNG, so the
  order is part of a scenario's reproducibility contract.
* **Direct metrics** (:data:`DIRECT_METRICS`) evaluate one sweep *point* of a
  ``mode="direct"`` scenario.  They receive the point parameters plus a fixed
  quota of pre-spawned generators and return one record (values need not be
  floats); E6's Theorem 7/8 audit is the canonical example.

The trial metrics reproduce the historical per-experiment trial functions
exactly — same computations, same RNG consumption order — which is what makes
the scenario pipeline bit-identical to the legacy ``run()`` entry points
(``tests/test_scenario_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.bounds import expected_direct_wait
from ..analysis_api import NetworkAnalysis
from ..core.dissemination import flood_broadcast, push_phone_call_broadcast
from ..core.expansion import ExpansionParameters
from ..core.guarantees import (
    minimal_labels_for_reachability,
    reachability_probability,
)
from ..core.labeling import box_assignment
from ..core.lifetime import (
    prefix_connectivity_time,
    temporal_diameter_lower_bound_theorem5,
)
from ..core.price_of_randomness import (
    opt_labels_upper_bound,
    por_upper_bound_theorem8,
    price_of_randomness,
    r_sufficient_theorem7,
)
from ..core.reachability import preserves_reachability, preserves_reachability_stacked
from ..core.temporal_graph import TemporalGraph
from ..erdosrenyi.gnp import gnp_connectivity, sample_gnp_edges
from ..erdosrenyi.thresholds import critical_probability
from ..exceptions import ConfigurationError
from ..graphs.properties import diameter
from ..graphs.static_graph import StaticGraph
from ..types import UNREACHABLE
from .families import build_sized_family

__all__ = [
    "TrialContext",
    "METRICS",
    "BATCH_METRICS",
    "DIRECT_METRICS",
    "register_metric",
    "register_direct_metric",
]


@dataclass
class TrialContext:
    """Everything a trial metric may read (and the RNG it may consume).

    ``analysis`` is the trial's shared :class:`~repro.analysis_api.NetworkAnalysis`
    handle, built lazily by :meth:`require_analysis`: every metric of a suite
    reads the same memoized arrival structure, so a multi-metric suite costs
    one batched sweep instead of one per metric.
    """

    graph: StaticGraph | None
    network: TemporalGraph | None
    params: Mapping[str, Any]
    rng: np.random.Generator
    metrics: dict[str, float] = field(default_factory=dict)
    extras: Mapping[str, Any] = field(default_factory=dict)
    analysis: NetworkAnalysis | None = None

    def require_network(self, metric: str) -> TemporalGraph:
        """The sampled network, or a clear error for metric/model mismatches."""
        if self.network is None:
            raise ConfigurationError(
                f"metric {metric!r} needs a sampled temporal network, but the "
                "scenario's label model produced none"
            )
        return self.network

    def require_analysis(self, metric: str) -> NetworkAnalysis:
        """The trial's shared analysis handle over the sampled network.

        Built on first use and reused by every later metric of the suite, so
        shared artifacts (the batched arrival sweep above all) are computed at
        most once per trial.  Raises the same
        :class:`~repro.exceptions.ConfigurationError` as
        :meth:`require_network` when the label model produced no network.
        """
        network = self.require_network(metric)
        if self.analysis is None:
            self.analysis = NetworkAnalysis(network)
        return self.analysis


MetricFunction = Callable[[TrialContext, Mapping[str, Any]], Mapping[str, float]]
BatchMetricFunction = Callable[
    [StaticGraph, Sequence[np.ndarray], int, Mapping[str, Any]],
    list[Mapping[str, float]],
]
DirectMetricFunction = Callable[
    [Mapping[str, Any], Sequence[np.random.Generator], Mapping[str, Any]],
    dict[str, Any],
]


# --------------------------------------------------------------------- #
# trial metrics
# --------------------------------------------------------------------- #
#: Fields the ``distance_summary`` metric can emit, as name → extractor.
_DISTANCE_FIELDS = {
    "temporal_diameter": lambda s: float(s.diameter),
    "mean_temporal_distance": lambda s: s.average_distance,
    "temporal_radius": lambda s: float(s.radius),
    "reachable_fraction": lambda s: s.reachable_fraction,
    "temporally_connected": lambda s: 1.0 if s.diameter < UNREACHABLE else 0.0,
}


def _metric_distance_summary(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """All-pairs distance statistics from one batched sweep.

    ``options["fields"]`` selects which statistics to emit (default: the
    temporal diameter and the mean distance over reachable pairs); all come
    from the trial's shared :class:`~repro.analysis_api.NetworkAnalysis`
    handle, i.e. from one memoized batched sweep.

    ``options["mode"]`` picks the compute path: ``"dense"`` (the memoized
    full-matrix sweep), ``"blocked"`` (the out-of-core tiled engine of
    :mod:`repro.core.blocked_sweeps`, ``O(n · tile_size)`` memory), or the
    default ``"auto"`` — blocked when the options name a ``tile_size`` (the
    CLI's ``--tile-size`` flag writes one), else dense.  The two paths are
    bit-identical, so the mode only changes the memory profile.
    ``options["tile_size"]`` sets the tile width in blocked mode.
    """
    mode = options.get("mode", "auto")
    if mode not in ("auto", "dense", "blocked"):
        raise ConfigurationError(
            f"distance_summary mode must be 'auto', 'dense' or 'blocked', "
            f"got {mode!r}"
        )
    tile_size = options.get("tile_size")
    if mode == "blocked" or (mode == "auto" and tile_size is not None):
        summary = ctx.require_analysis("distance_summary").streamed_distance_summary(
            tile_size=None if tile_size is None else int(tile_size)
        )
    else:
        summary = ctx.require_analysis("distance_summary").summary
    fields = options.get("fields", ["temporal_diameter", "mean_temporal_distance"])
    out: dict[str, float] = {}
    for name in fields:
        if name not in _DISTANCE_FIELDS:
            raise ConfigurationError(
                f"distance_summary has no field {name!r}; "
                f"available: {sorted(_DISTANCE_FIELDS)}"
            )
        out[name] = _DISTANCE_FIELDS[name](summary)
    return out


#: Fields the ``temporal_centrality`` metric can emit, as name → extractor.
#: Each extractor receives the trial's shared analysis handle; influence and
#: reach counts are normalised to fractions of the ``n − 1`` possible partners
#: so the statistics are comparable across scales.
_CENTRALITY_FIELDS = {
    "mean_closeness": lambda a: float(a.closeness().mean()),
    "max_closeness": lambda a: float(a.closeness().max()),
    "mean_harmonic_closeness": lambda a: float(a.harmonic_closeness().mean()),
    "max_harmonic_closeness": lambda a: float(a.harmonic_closeness().max()),
    "mean_influence": lambda a: float(
        a.influence_counts().mean() / max(a.n - 1, 1)
    ),
    "min_influence": lambda a: float(
        a.influence_counts().min() / max(a.n - 1, 1)
    ),
    "mean_reach": lambda a: float(a.reach_counts().mean() / max(a.n - 1, 1)),
    "min_reach": lambda a: float(a.reach_counts().min() / max(a.n - 1, 1)),
}


def _metric_temporal_centrality(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Per-vertex temporal-centrality statistics from one shared pass.

    ``options["fields"]`` selects which statistics to emit (default: the mean
    closeness, harmonic closeness and influence fraction); the whole family is
    derived together from the trial's shared analysis handle, so adding more
    fields never costs another sweep.
    """
    analysis = ctx.require_analysis("temporal_centrality")
    fields = options.get(
        "fields", ["mean_closeness", "mean_harmonic_closeness", "mean_influence"]
    )
    out: dict[str, float] = {}
    for name in fields:
        if name not in _CENTRALITY_FIELDS:
            raise ConfigurationError(
                f"temporal_centrality has no field {name!r}; "
                f"available: {sorted(_CENTRALITY_FIELDS)}"
            )
        out[name] = _CENTRALITY_FIELDS[name](analysis)
    return out


def _metric_temporal_diameter(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Just the exact temporal diameter of the instance."""
    del options
    return {
        "temporal_diameter": float(
            ctx.require_analysis("temporal_diameter").diameter
        )
    }


def _metric_ratio_to_log_n(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """``temporal_diameter / log n`` — the Theorem 4 constant-γ check."""
    source = str(options.get("of", "temporal_diameter"))
    n = ctx.require_network("ratio_to_log_n").n
    return {"ratio_to_log_n": ctx.metrics[source] / math.log(n)}


def _metric_direct_wait_baseline(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """The ≈ n/2 expected wait of a single direct edge (the paper's foil)."""
    del options
    return {
        "direct_wait_baseline": expected_direct_wait(
            ctx.require_network("direct_wait_baseline").n
        )
    }


def _metric_theorem5_bound(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """The ``(a/n)·log n`` scale of the Theorem 5 lower bound."""
    del options
    network = ctx.require_network("theorem5_scaled_bound")
    return {
        "scaled_bound": temporal_diameter_lower_bound_theorem5(
            network.n, network.lifetime
        )
    }


def _metric_prefix_connectivity(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Per-instance certified TD lower bound (emitted only when finite)."""
    del options
    prefix = prefix_connectivity_time(ctx.require_network("prefix_connectivity"))
    if prefix < UNREACHABLE:
        return {"prefix_connectivity_time": float(prefix)}
    return {}


def _metric_expansion_process(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Algorithm 1 between a random pair, plus the exact foremost arrival."""
    del options
    analysis = ctx.require_analysis("expansion_process")
    n = analysis.n
    parameters = ExpansionParameters.suggest(
        n,
        c1=float(ctx.params.get("c1", 3.0)),
        c2=float(ctx.params.get("c2", 8.0)),
    )
    source, target = ctx.rng.choice(n, size=2, replace=False)
    result = analysis.expansion(int(source), int(target), parameters)
    metrics: dict[str, float] = {
        "success": 1.0 if result.success else 0.0,
        "time_bound": result.time_bound,
        "final_forward_layer": float(result.forward_layer_sizes[-1]),
        "final_backward_layer": float(result.backward_layer_sizes[-1]),
        "sqrt_n": math.sqrt(n),
    }
    if result.success and result.journey is not None:
        metrics["arrival_time"] = float(result.arrival_time)
        metrics["journey_hops"] = float(result.journey.hops)
        metrics["optimal_arrival"] = float(
            analysis.distance(int(source), int(target))
        )
    return metrics


def _metric_flood_vs_phone_call(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """§3.5 flooding from a random source next to the phone-call push baseline."""
    del options
    network = ctx.require_network("flood_vs_phone_call")
    n = network.n
    source = int(ctx.rng.integers(0, n))
    flood = flood_broadcast(network, source)
    phone = push_phone_call_broadcast(n, source=source, seed=ctx.rng)
    metrics: dict[str, float] = {
        "flood_completed": 1.0 if flood.completed else 0.0,
        "flood_transmissions": float(flood.num_transmissions),
        "phone_rounds": float(phone.broadcast_time if phone.completed else UNREACHABLE),
        "phone_transmissions": float(phone.num_transmissions),
    }
    if flood.completed:
        metrics["flood_broadcast_time"] = float(flood.broadcast_time)
    return metrics


def _metric_flood_time(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Flooding broadcast time from a random source (no baseline run)."""
    del options
    network = ctx.require_network("flood_time")
    broadcast = flood_broadcast(network, source=int(ctx.rng.integers(0, network.n)))
    return {"broadcast_time": float(broadcast.broadcast_time)}


def _metric_strong_reachability(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Does the sampled assignment preserve the graph's reachability?"""
    del options
    return {
        "reachable": 1.0
        if ctx.require_analysis("strong_reachability").preserves_reachability()
        else 0.0
    }


def _metric_mean_label(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """Expected label of the resolved F-CASE distribution (a constant per point)."""
    del options
    distribution = ctx.extras.get("distribution")
    if distribution is None:
        raise ConfigurationError(
            "metric 'mean_label' needs a label model with an explicit "
            "distribution (the F-CASE)"
        )
    return {"mean_label": distribution.mean()}


def _metric_total_labels(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """The paper's cost measure ``Σ_e |L_e|`` of the sampled instance."""
    del options
    return {"total_labels": float(ctx.require_network("total_labels").total_labels)}


def _metric_er_connectivity(
    ctx: TrialContext, options: Mapping[str, Any]
) -> dict[str, float]:
    """One G(n, p) draw at ``p = multiplier·log n / n``: connectivity + giant.

    Samples its own substrate (raw edge arrays, no ``StaticGraph``), so it is
    used with the ``"none"`` graph family and label model.
    """
    del options
    n = int(ctx.params["n"])
    multiplier = float(ctx.params["multiplier"])
    p = min(1.0, multiplier * critical_probability(n))
    edges_u, edges_v = sample_gnp_edges(n, p, seed=ctx.rng)
    connected, giant_fraction = gnp_connectivity(n, edges_u, edges_v)
    return {
        "connected": 1.0 if connected else 0.0,
        "giant_fraction": giant_fraction,
        "p": p,
    }


METRICS: dict[str, MetricFunction] = {
    "distance_summary": _metric_distance_summary,
    "temporal_centrality": _metric_temporal_centrality,
    "temporal_diameter": _metric_temporal_diameter,
    "ratio_to_log_n": _metric_ratio_to_log_n,
    "direct_wait_baseline": _metric_direct_wait_baseline,
    "theorem5_scaled_bound": _metric_theorem5_bound,
    "prefix_connectivity": _metric_prefix_connectivity,
    "expansion_process": _metric_expansion_process,
    "flood_vs_phone_call": _metric_flood_vs_phone_call,
    "flood_time": _metric_flood_time,
    "strong_reachability": _metric_strong_reachability,
    "mean_label": _metric_mean_label,
    "total_labels": _metric_total_labels,
    "er_connectivity": _metric_er_connectivity,
}


def _batch_strong_reachability(
    graph: StaticGraph,
    draws: Sequence[np.ndarray],
    lifetime: int,
    options: Mapping[str, Any],
) -> list[Mapping[str, float]]:
    """:func:`_metric_strong_reachability` of every trial, from its label draws."""
    del options
    return [
        {"reachable": 1.0 if preserved else 0.0}
        for preserved in preserves_reachability_stacked(graph, draws, lifetime)
    ]


#: Trial metrics with a batch form: ``(graph, draws, lifetime, options)`` to
#: one mapping per trial's ``(m, r)`` label draws, equal to the trial
#: metric's on the network ``from_label_matrix`` builds from them.  A suite
#: made up wholly of them, whose label model has a draw form, runs a shard's
#: trials together (:meth:`~repro.scenarios.pipeline.ScenarioTrial.batch`);
#: metrics added by :func:`register_metric` run per trial.
BATCH_METRICS: dict[str, BatchMetricFunction] = {
    "strong_reachability": _batch_strong_reachability,
}


# --------------------------------------------------------------------- #
# direct metrics (one evaluation per sweep point)
# --------------------------------------------------------------------- #
def _direct_theorem7_por_audit(
    params: Mapping[str, Any],
    rngs: Sequence[np.random.Generator],
    options: Mapping[str, Any],
) -> dict[str, Any]:
    """The E6 audit of Theorems 7–8 and Claim 1 on one sized graph family.

    Consumes exactly four generators, in order: sufficient-``r`` reachability
    probe, quarter-``r`` probe, empirical threshold search, randomized box
    assignment.
    """
    del options
    if len(rngs) != 4:
        raise ConfigurationError(
            f"theorem7_por_audit needs exactly 4 RNG streams, got {len(rngs)}"
        )
    rng_iter = iter(rngs)
    family = str(params["family"])
    n_target = int(params["n"])
    trials = int(params["trials"])

    graph = build_sized_family(family, n_target)
    n = graph.n
    m = graph.m
    d = diameter(graph)
    r_theorem7 = r_sufficient_theorem7(n, d)
    r_sufficient = max(1, int(math.ceil(r_theorem7)) + 1)
    lifetime = n

    prob_at_sufficient = reachability_probability(
        graph, r_sufficient, lifetime=lifetime, trials=trials, seed=next(rng_iter)
    )
    r_quarter = max(1, r_sufficient // 4)
    prob_at_quarter = reachability_probability(
        graph, r_quarter, lifetime=lifetime, trials=trials, seed=next(rng_iter)
    )
    r_hat = minimal_labels_for_reachability(
        graph,
        target_probability=0.9,
        lifetime=lifetime,
        trials=trials,
        r_max=4 * r_sufficient,
        seed=next(rng_iter),
    )
    opt_bound = opt_labels_upper_bound(graph, lifetime)
    measured_por = price_of_randomness(graph, r_hat, opt=opt_bound)
    theorem8_bound = por_upper_bound_theorem8(n, m, d)

    # Claim 1 / Figure 3: the deterministic box assignment, randomized reading.
    box_network = box_assignment(
        graph, lifetime=max(n, d), mode="random", seed=next(rng_iter)
    )
    box_ok = preserves_reachability(box_network)

    return {
        "family": family,
        "n": n,
        "m": m,
        "diameter": d,
        "r_theorem7_=2d·log n": r_theorem7,
        "P[T_reach]_at_r_sufficient": prob_at_sufficient,
        "P[T_reach]_at_r/4": prob_at_quarter,
        "empirical_r_hat": r_hat,
        "measured_PoR": measured_por,
        "theorem8_PoR_bound": theorem8_bound,
        "box_assignment_preserves_reachability": box_ok,
    }


DIRECT_METRICS: dict[str, DirectMetricFunction] = {
    "theorem7_por_audit": _direct_theorem7_por_audit,
}


def register_metric(name: str, fn: MetricFunction) -> None:
    """Register a custom trial metric under ``name`` (must be unused)."""
    if name in METRICS:
        raise ConfigurationError(f"metric {name!r} is already registered")
    METRICS[name] = fn


def register_direct_metric(name: str, fn: DirectMetricFunction) -> None:
    """Register a custom direct (per-point) metric under ``name``."""
    if name in DIRECT_METRICS:
        raise ConfigurationError(f"direct metric {name!r} is already registered")
    DIRECT_METRICS[name] = fn
