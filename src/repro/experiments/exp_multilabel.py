"""E9 (extension) — multi-label random cliques: buying extra availability.

Section 4 of the paper studies how many random labels per edge are needed for
reachability on *sparse* graphs; on the clique a single label already
suffices, so extra labels buy *speed* instead.  The workload is the
declarative scenario ``"E9"`` (clique × ``r`` uniform labels per edge ×
distance-summary and label-cost metrics); this module's report measures
how the temporal diameter of the normalized random clique shrinks as ``r``
grows, quantifying the diminishing returns of additional availability (the
conclusions' "combining random availabilities" direction).

Expected shape: the temporal diameter decreases monotonically in ``r`` and is
already within a small constant factor of its floor for ``r`` around
``log n`` — randomness is cheap on dense graphs.
"""

from __future__ import annotations

import math
from typing import Any

from ..analysis.comparison import ComparisonRow
from ..scenarios import ScenarioRun
from ..scenarios.library import E9_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E9 scenario run into the paper-vs-measured report."""
    scale = result.scale
    config = SCALES[scale]
    n = int(config["n"])
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    for point in sweep_result:
        r = int(point.parameters["r"])
        td = point.mean("temporal_diameter")
        records.append(
            {
                "n": n,
                "labels_per_edge_r": r,
                "mean_temporal_diameter": td,
                "TD_over_log_n": td / math.log(n),
                "total_labels_cost": point.mean("total_labels"),
            }
        )

    diameters = [record["mean_temporal_diameter"] for record in records]
    monotone = all(b <= a + 0.5 for a, b in zip(diameters, diameters[1:]))
    comparison = [
        ComparisonRow(
            quantity="extra labels never slow dissemination down",
            paper="adding labels can only create journeys (monotonicity of the model)",
            measured=f"mean TD over r sweep: {[round(d, 1) for d in diameters]}",
            matches=monotone,
            note="monotone non-increasing within Monte-Carlo noise",
        ),
        ComparisonRow(
            quantity="single-label clique already achieves Θ(log n)",
            paper="Theorem 4: the r = 1 column reproduces the headline bound",
            measured=f"TD(r=1)/log n = {diameters[0] / math.log(n):.2f}",
            matches=1.0 <= diameters[0] / math.log(n) <= 10.0,
            note="cross-check against E1",
        ),
        ComparisonRow(
            quantity="diminishing returns of extra availability",
            paper="conclusions: combining random and optimal availabilities is future work",
            measured=(
                f"TD shrinks by a factor {diameters[0] / max(diameters[-1], 1e-9):.1f} "
                f"while the label cost grows {records[-1]['labels_per_edge_r']}×"
            ),
            matches=diameters[-1] <= diameters[0],
            note="extension measurement; no published number to match",
        ),
    ]
    return ExperimentReport(
        experiment_id="E9",
        title="Multi-label random cliques (extension)",
        claim=(
            "Extension: on the clique a single random label per edge already guarantees "
            "reachability, so additional labels buy speed — the temporal diameter "
            "decreases monotonically in r with diminishing returns."
        ),
        records=records,
        comparison=comparison,
        notes="Extension experiment motivated by §4 and the conclusions of the paper.",
        scale=scale,
    )
