"""E7 — Erdős–Rényi connectivity threshold (substrate validation).

Both lower bounds of the paper (the Remark after Theorem 4 and Theorem 5)
rest on the classical fact that ``G(n, p)`` is disconnected whp when
``p`` is below ``log n / n`` and connected whp above it.  The workload is the
declarative scenario ``"E7"`` (no graph family, no label model — the
``er_connectivity`` metric samples raw ``G(n, p)`` edge arrays itself).  It
sweeps ``p`` as a multiple of the critical value and measures the
connectivity probability and the giant-component fraction; this module
builds the report from that run.
"""

from __future__ import annotations

from typing import Any

from ..analysis.comparison import ComparisonRow
from ..analysis.thresholds import estimate_probability_threshold
from ..scenarios import ScenarioRun
from ..scenarios.library import E7_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E7 scenario run into the paper-vs-measured report."""
    scale = result.scale
    config = SCALES[scale]
    n = int(config["n"])
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    multipliers: list[float] = []
    probabilities: list[float] = []
    for point in sweep_result:
        multiplier = float(point.parameters["multiplier"])
        connected = point.mean("connected")
        records.append(
            {
                "n": n,
                "p_over_critical": multiplier,
                "p": point.mean("p"),
                "P[connected]": connected,
                "giant_component_fraction": point.mean("giant_fraction"),
            }
        )
        multipliers.append(multiplier)
        probabilities.append(connected)

    below = [r["P[connected]"] for r in records if r["p_over_critical"] <= 0.5]
    above = [r["P[connected]"] for r in records if r["p_over_critical"] >= 2.0]
    crossing = estimate_probability_threshold(multipliers, probabilities, target=0.5)
    comparison = [
        ComparisonRow(
            quantity="G(n, p) is disconnected below the threshold",
            paper="p = o(log n / n) ⇒ disconnected whp (Bollobás, used in Thm 5 and the Remark)",
            measured=f"P[connected] at p ≤ 0.5·p*: {[round(x, 2) for x in below]}",
            matches=bool(below) and max(below) <= 0.2,
            note="the sub-threshold regime the lower bounds exploit",
        ),
        ComparisonRow(
            quantity="G(n, p) is connected above the threshold",
            paper="p ≥ (1+ε)·log n / n ⇒ connected whp",
            measured=f"P[connected] at p ≥ 2·p*: {[round(x, 2) for x in above]}",
            matches=bool(above) and min(above) >= 0.8,
            note="the supercritical regime",
        ),
        ComparisonRow(
            quantity="the transition sits near p* = log n / n",
            paper="sharp threshold at log n / n",
            measured=f"measured 50% crossing at ≈ {crossing:.2f}·p*" if crossing else "no crossing found",
            matches=crossing is not None and 0.5 <= crossing <= 2.0,
            note="finite-size effects shift the crossing slightly above 1·p*",
        ),
    ]
    return ExperimentReport(
        experiment_id="E7",
        title="Erdős–Rényi connectivity threshold (substrate)",
        claim=(
            "G(n, p) is disconnected whp for p below log n / n and connected whp above "
            "it — the classical result both of the paper's lower bounds reduce to."
        ),
        records=records,
        comparison=comparison,
        notes="Validation of the Erdős–Rényi substrate used by Theorem 5 and the Remark after Theorem 4.",
        scale=scale,
    )
