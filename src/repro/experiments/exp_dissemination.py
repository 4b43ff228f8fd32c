"""E4 — Message dissemination in the hostile clique (§3.5) vs. the phone-call model.

The flooding protocol of §3.5 ("send the moment an out-arc becomes available")
broadcasts from any source in ``O(log n)`` time whp on the normalized U-RT
clique.  The paper's §1.1 contrasts this with the classic random phone-call
push protocol, which also takes ``Θ(log n)`` rounds but relies on *protocol*
randomness, whereas here randomness lives entirely in the input labels.

The workload is the declarative scenario ``"E4"`` (clique × normalized U-RTN
× flood-vs-phone-call metric); this module's report puts the flooding
broadcast time next to ``log n``, the direct-wait baseline ``n/2`` and the
phone-call push rounds.
"""

from __future__ import annotations

import math
from typing import Any

from ..analysis.bounds import expected_direct_wait, phone_call_rounds_prediction
from ..analysis.comparison import ComparisonRow
from ..analysis.fitting import fit_log_model
from ..scenarios import ScenarioRun
from ..scenarios.library import E4_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E4 scenario run into the paper-vs-measured report."""
    scale = result.scale
    sweep_result = result.sweep

    records: list[dict[str, Any]] = []
    sizes: list[float] = []
    broadcast_times: list[float] = []
    for point in sweep_result:
        n = int(point.parameters["n"])
        completed = point.mean("flood_completed")
        record: dict[str, Any] = {
            "n": n,
            "flood_completion_rate": completed,
            "log_n": math.log(n),
            "direct_wait_baseline": expected_direct_wait(n),
            "phone_call_rounds": point.mean("phone_rounds"),
            "phone_call_prediction": phone_call_rounds_prediction(n),
            "flood_transmissions": point.mean("flood_transmissions"),
        }
        if "flood_broadcast_time" in point.metric_names():
            record["flood_broadcast_time"] = point.mean("flood_broadcast_time")
            sizes.append(float(n))
            broadcast_times.append(record["flood_broadcast_time"])
        records.append(record)

    fit = fit_log_model(sizes, broadcast_times)
    largest = records[-1]
    comparison = [
        ComparisonRow(
            quantity="flooding informs everyone",
            paper="the protocol disseminates to all vertices whp (§3.5)",
            measured=f"completion rates {[round(r['flood_completion_rate'], 2) for r in records]}",
            matches=all(r["flood_completion_rate"] >= 0.99 for r in records),
            note="the clique always provides the direct fallback edge",
        ),
        ComparisonRow(
            quantity="broadcast time is O(log n)",
            paper="dissemination completes in O(log n) time (§3.5 via Theorem 4)",
            measured=(
                f"fit time ≈ {fit.coefficients[0]:.2f}·log n + {fit.coefficients[1]:.2f} "
                f"(R²={fit.r_squared:.3f})"
            ),
            matches=fit.r_squared > 0.8,
            note="logarithmic growth of the measured broadcast time",
        ),
        ComparisonRow(
            quantity="comparable to the random phone-call model",
            paper="phone-call push also needs Θ(log n) rounds, but with protocol randomness (§1.1)",
            measured=(
                f"at n={largest['n']}: flooding {largest.get('flood_broadcast_time', float('nan')):.1f} "
                f"time steps vs phone-call {largest['phone_call_rounds']:.1f} rounds"
            ),
            matches=largest.get("flood_broadcast_time", float("inf"))
            < expected_direct_wait(int(largest["n"])) / 2,
            note="both are exponentially below the n/2 direct-wait baseline",
        ),
    ]
    return ExperimentReport(
        experiment_id="E4",
        title="Flooding dissemination vs. the phone-call baseline",
        claim=(
            "A vertex can spread a message to all others in O(log n) time on the hostile "
            "clique using the natural flooding protocol (§3.5); the random phone-call "
            "push baseline achieves the same order using protocol randomness (§1.1)."
        ),
        records=records,
        comparison=comparison,
        notes=(
            "Flood time is measured in temporal-label units, phone-call time in "
            "synchronous rounds; the comparison is about growth order, not units."
        ),
        scale=scale,
    )
