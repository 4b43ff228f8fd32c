"""E1 — Temporal diameter of the normalized uniform random temporal clique.

Theorem 4 (plus the Remark following it): with one uniform label per arc drawn
from ``{1, …, n}``, the temporal diameter of the directed clique is
``Θ(log n)`` with high probability and in expectation — exponentially smaller
than the ``≈ n/2`` a single direct hop would need in expectation.

The workload itself is the declarative scenario ``"E1"`` (clique × normalized
U-RTN × distance-summary suite, defined in :mod:`repro.scenarios.library`);
this module is the thin report layer:
:func:`repro.experiments.registry.run_experiment` executes the scenario
through the generic pipeline and :func:`build_report` turns the sweep into
the paper-vs-measured record —

* the mean temporal diameter and its ratio to ``log n`` (should stabilise at a
  constant ``γ``),
* the fitted ``c·log n + b`` model and its ``R²``,
* the fitted power-law exponent (should be ≈ 0.3 or less, i.e. clearly
  sub-linear, while the direct-wait baseline grows linearly).
"""

from __future__ import annotations

import math
from typing import Any

from ..analysis.bounds import expected_direct_wait, temporal_diameter_prediction
from ..analysis.comparison import ComparisonRow
from ..analysis.fitting import fit_log_model, fit_power_model
from ..scenarios import ScenarioRun
from ..scenarios.library import E1_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E1 scenario run into the paper-vs-measured report."""
    scale = result.scale
    config = SCALES[scale]
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    sizes: list[float] = []
    diameters: list[float] = []
    for point in sweep_result:
        n = int(point.parameters["n"])
        stats = point.summary("temporal_diameter")
        ratio = point.summary("ratio_to_log_n")
        records.append(
            {
                "n": n,
                "mean_temporal_diameter": stats.mean,
                "ci_low": stats.ci_low,
                "ci_high": stats.ci_high,
                "log_n": math.log(n),
                "ratio_TD_over_log_n": ratio.mean,
                "direct_wait_baseline": expected_direct_wait(n),
            }
        )
        sizes.append(float(n))
        diameters.append(stats.mean)

    log_fit = fit_log_model(sizes, diameters)
    power_fit = fit_power_model(sizes, diameters)
    gamma = log_fit.coefficients[0]
    ratios = [record["ratio_TD_over_log_n"] for record in records]
    ratio_spread = max(ratios) - min(ratios)
    largest_n = int(sizes[-1])
    # A mean over pairs, like the direct edge's expected wait; the diameter
    # is a maximum over the n(n − 1) pairs.
    largest_mean = sweep_result.points[-1].mean("mean_temporal_distance")

    comparison = [
        ComparisonRow(
            quantity="TD grows as Θ(log n)",
            paper="TD ≤ γ·log n whp, TD = Ω(log n) (Thm 4 + Remark)",
            measured=(
                f"fit TD ≈ {gamma:.2f}·log n + {log_fit.coefficients[1]:.2f} "
                f"(R²={log_fit.r_squared:.3f}); power-law exponent "
                f"{power_fit.coefficients[1]:.2f}"
            ),
            matches=log_fit.r_squared > 0.8 and power_fit.coefficients[1] < 0.6,
            note="logarithmic fit explains the growth; clearly sub-polynomial",
        ),
        ComparisonRow(
            quantity="TD/log n stabilises at a constant γ",
            paper="γ constant, γ > 1",
            measured=f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}] across the sweep",
            matches=ratio_spread < max(ratios) and min(ratios) >= 1.0,
            note="ratio varies slowly compared to its magnitude",
        ),
        ComparisonRow(
            quantity=f"multi-hop journeys beat the direct edge (n={largest_n})",
            paper="direct wait ≈ n/2, journeys O(log n)",
            measured=(
                f"mean temporal distance ≈ {largest_mean:.1f} vs direct-wait "
                f"baseline {expected_direct_wait(largest_n):.1f}"
            ),
            matches=largest_mean < expected_direct_wait(largest_n) / 2,
            note=(
                "the 'hostile clique is not secure' headline result: the mean "
                "foremost arrival is under half the direct edge's expected wait"
            ),
        ),
    ]
    return ExperimentReport(
        experiment_id="E1",
        title="Temporal diameter of the normalized U-RT clique",
        claim=(
            "The temporal diameter of the directed clique with one uniform random "
            "label per arc from {1,…,n} is Θ(log n) whp and in expectation "
            "(Theorems 3–4 and the Remark in §3.4), far below the ≈ n/2 expected "
            "wait of the single direct edge."
        ),
        records=records,
        comparison=comparison,
        notes=(
            "Exact temporal diameters are computed per instance via all-pairs "
            "foremost journeys; the expectation is estimated over "
            f"{config['repetitions']} instances per n. Prediction reference: "
            f"γ·log n with fitted γ={temporal_diameter_prediction(2, gamma=gamma) / math.log(2):.2f}."
        ),
        scale=scale,
    )
