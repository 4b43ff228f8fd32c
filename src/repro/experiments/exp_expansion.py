"""E3 / F1 — The Expansion Process algorithm (Algorithm 1, Theorem 3).

The constructive heart of the paper: the expansion process grows layered
frontiers out of ``s`` and into ``t`` and links them with a single matching
edge, giving an explicit journey of arrival time ``≤ 3c₁·log n + 2d·c₂``.
Theorem 3 says the construction succeeds with probability ``1 − O(n⁻³)``.

The workload is the declarative scenario ``"E3"`` (clique × normalized U-RTN
× expansion-process metric); this module's report gives, per ``n``:

* the success probability of the construction,
* the arrival time of the constructed journey versus the analytic time bound
  and versus the exact temporal distance (foremost journey) for the same pair,
* the layer-size trace ``|Γ_i(s)|, |Γ'_i(t)|`` — the measured counterpart of
  the paper's Figure 1 (reported for the largest ``n`` in the sweep).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..analysis.comparison import ComparisonRow
from ..core.expansion import ExpansionParameters, expansion_process
from ..core.labeling import normalized_urtn
from ..graphs.generators import complete_graph
from ..scenarios import ScenarioRun
from ..scenarios.library import E3_SCALES as SCALES
from ..utils.seeding import SeedLike
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def _layer_trace(n: int, c1: float, c2: float, seed: SeedLike) -> list[dict[str, Any]]:
    """Single-instance layer-size trace (the measured Figure 1)."""
    rng = np.random.default_rng(seed if not isinstance(seed, np.random.Generator) else None)
    parameters = ExpansionParameters.suggest(n, c1=c1, c2=c2)
    clique = complete_graph(n, directed=True)
    network = normalized_urtn(clique, seed=rng)
    result = expansion_process(network, 0, 1, parameters)
    trace = []
    for i, (forward, backward) in enumerate(
        zip(result.forward_layer_sizes, result.backward_layer_sizes), start=1
    ):
        trace.append({"layer": i, "forward_size": forward, "backward_size": backward})
    return trace


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E3 scenario run into the paper-vs-measured report."""
    scale = result.scale
    config = SCALES[scale]
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    success_rates: list[float] = []
    for point in sweep_result:
        n = int(point.parameters["n"])
        success = point.mean("success")
        record: dict[str, Any] = {
            "n": n,
            "success_probability": success,
            "time_bound_3c1logn+2dc2": point.mean("time_bound"),
            "log_n": math.log(n),
            "final_forward_layer": point.mean("final_forward_layer"),
            "sqrt_n_target": math.sqrt(n),
        }
        if "arrival_time" in point.metric_names():
            record["mean_arrival_time"] = point.mean("arrival_time")
            record["mean_exact_temporal_distance"] = point.mean("optimal_arrival")
            record["mean_journey_hops"] = point.mean("journey_hops")
        records.append(record)
        success_rates.append(success)

    layer_trace = _layer_trace(
        int(config["sizes"][-1]), config["c1"], config["c2"], result.seed
    )

    largest = records[-1]
    arrival_ok = (
        "mean_arrival_time" in largest
        and largest["mean_arrival_time"] <= largest["time_bound_3c1logn+2dc2"] + 1e-9
    )
    comparison = [
        ComparisonRow(
            quantity="Algorithm 1 succeeds with high probability",
            paper="success probability ≥ 1 − 3/n³ (Theorem 3)",
            measured=f"measured success rates {['%.2f' % s for s in success_rates]} over the n sweep",
            matches=min(success_rates) >= 0.8,
            note="practical constants c1/c2 (DESIGN.md §5); success should not degrade with n",
        ),
        ComparisonRow(
            quantity="constructed journey arrives within 3c₁·log n + 2d·c₂",
            paper="arrival ≤ 3c₁ log n + 2dc₂ = Θ(log n) by construction",
            measured=(
                f"mean arrival {largest.get('mean_arrival_time', float('nan')):.1f} vs bound "
                f"{largest['time_bound_3c1logn+2dc2']:.1f} at n={largest['n']}"
            ),
            matches=bool(arrival_ok),
            note="interval bookkeeping enforces the bound whenever the algorithm succeeds",
        ),
        ComparisonRow(
            quantity="frontiers reach ≈√n vertices (Theorems 1–2)",
            paper="|Γ_{d+1}(s)|, |Γ'_{d+1}(t)| = Θ(√n) whp",
            measured=(
                f"final forward layer ≈ {largest['final_forward_layer']:.1f} vs √n = "
                f"{largest['sqrt_n_target']:.1f} at n={largest['n']}"
            ),
            matches=largest["final_forward_layer"] >= 0.5 * largest["sqrt_n_target"],
            note="layer sizes of the last expansion step",
        ),
    ]
    trace_text = "; ".join(
        "layer {layer}: forward={forward_size}, backward={backward_size}".format(**row)
        for row in layer_trace
    )
    notes = (
        "F1 (Figure 1 counterpart) — layer-size trace of a single instance at "
        f"n={config['sizes'][-1]}: {trace_text}"
    )
    return ExperimentReport(
        experiment_id="E3",
        title="Expansion Process (Algorithm 1)",
        claim=(
            "The expansion process finds an s→t journey of arrival time Θ(log n) with "
            "probability at least 1 − 3/n³ on the directed normalized U-RT clique "
            "(Theorem 3); its frontiers grow to Θ(√n) vertices (Theorems 1–2)."
        ),
        records=records,
        comparison=comparison,
        notes=notes,
        scale=scale,
    )
