"""E2 — Dependence of the temporal diameter on the lifetime (Theorem 5).

When each arc of the clique receives one uniform label from ``{1, …, a}`` with
``a`` larger than ``n``, the temporal diameter must grow like
``Ω((a/n)·log n)``: the arcs labelled at most ``k`` form an Erdős–Rényi graph
``G(n, k/a)`` which is disconnected below the ``log n / n`` threshold, so no
instance can have all pairs communicate before ``k ≈ (a/n)·log n``.

The workload is the declarative scenario ``"E2"`` (clique × single uniform
label with lifetime ``multiplier·n`` × diameter/bound/certificate suite);
this module's report checks that the measured diameters scale linearly in
``(a/n)·log n``.
"""

from __future__ import annotations

from typing import Any

from ..analysis.comparison import ComparisonRow
from ..analysis.fitting import fit_scaled_log_model
from ..core.lifetime import temporal_diameter_lower_bound_theorem5
from ..scenarios import ScenarioRun
from ..scenarios.library import E2_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E2 scenario run into the paper-vs-measured report."""
    scale = result.scale
    config = SCALES[scale]
    n = int(config["n"])
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    scaled_x: list[float] = []
    measured_td: list[float] = []
    for point in sweep_result:
        multiplier = int(point.parameters["multiplier"])
        lifetime = multiplier * n
        td_stats = point.summary("temporal_diameter")
        bound = temporal_diameter_lower_bound_theorem5(n, lifetime)
        record = {
            "n": n,
            "lifetime_over_n": multiplier,
            "lifetime": lifetime,
            "mean_temporal_diameter": td_stats.mean,
            "theorem5_scale_(a/n)log_n": bound,
            "TD_over_scale": td_stats.mean / bound,
        }
        if "prefix_connectivity_time" in point.metric_names():
            record["mean_prefix_connectivity_time"] = point.mean("prefix_connectivity_time")
        records.append(record)
        scaled_x.append(bound)
        measured_td.append(td_stats.mean)

    fit = fit_scaled_log_model(scaled_x, measured_td)
    slope = fit.coefficients[0]
    ratios = [record["TD_over_scale"] for record in records]
    base_td = measured_td[0]
    largest_td = measured_td[-1]
    largest_multiplier = int(config["multipliers"][-1])

    comparison = [
        ComparisonRow(
            quantity="TD grows linearly in (a/n)·log n",
            paper="TD = Ω((a/n)·log n) when a ≫ n (Theorem 5)",
            measured=f"fit TD ≈ {slope:.2f}·(a/n)·log n + {fit.coefficients[1]:.2f} (R²={fit.r_squared:.3f})",
            matches=slope > 0.5 and fit.r_squared > 0.9,
            note="linear response to the lifetime scale, as predicted",
        ),
        ComparisonRow(
            quantity="longer lifetimes slow dissemination",
            paper="the dependence on the lifetime is not captured by static models",
            measured=(
                f"TD rises from {base_td:.1f} (a=n) to {largest_td:.1f} "
                f"(a={largest_multiplier}·n)"
            ),
            matches=largest_td > 2 * base_td,
            note="monotone increase across the sweep",
        ),
        ComparisonRow(
            quantity="TD / ((a/n)·log n) stays bounded",
            paper="matching O((a/n)·log n) behaviour expected from the upper-bound argument",
            measured=f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
            matches=max(ratios) < 10 * max(min(ratios), 1e-9),
            note="constant-factor corridor around the predicted scale",
        ),
    ]
    return ExperimentReport(
        experiment_id="E2",
        title="Temporal diameter vs. lifetime",
        claim=(
            "If the lifetime a is asymptotically larger than n, the temporal diameter "
            "of the uniform random temporal clique must be Ω((a/n)·log n) (Theorem 5)."
        ),
        records=records,
        comparison=comparison,
        notes=(
            "prefix_connectivity_time is the per-instance certified lower bound used "
            "by the Theorem 5 argument (first time at which the labelled-so-far edges "
            "connect the clique)."
        ),
        scale=scale,
    )
