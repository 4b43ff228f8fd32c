"""E5 / F2 — Labels needed on the star and its Price of Randomness (Theorem 6).

Theorem 6 shows, for the star ``K_{1,n−1}`` (diameter 2):

* (a) ``ρ·log n`` random labels per edge with ``ρ > 8`` strongly guarantee
  temporal reachability whp — established through *2-split journeys* (first
  hop before ``n/2``, second after; Figure 2);
* (b) ``o(log n)`` labels per edge fail whp;
* hence ``r(n) = Θ(log n)`` and, since ``OPT = 2m``, ``PoR(star) = Θ(log n)``.

The paper's ``OPT = 2m`` is exact at lifetime 2; E5 runs at lifetime ``n``,
where ``OPT = 2m − 1`` (:func:`~repro.core.price_of_randomness.opt_labels_star`),
so the report divides by the exact value and prints the paper's beside it.

The workload is the declarative scenario ``"E5"`` (star × ``r`` uniform labels
per edge × strong-reachability metric, one sweep block per ``n`` because the
probed label grid depends on ``n``); this module's report locates the
empirical threshold ``r̂(n)`` at the 90% level and gives ``r̂ / log n``
(should be roughly constant) together with the resulting PoR.  The 2-split journey probability (the measured Figure 2
quantity) is reported alongside its exact analytic value.
"""

from __future__ import annotations

import math
from typing import Any

from ..analysis.comparison import ComparisonRow
from ..analysis.thresholds import estimate_probability_threshold
from ..core.guarantees import (
    two_split_journey_probability,
    two_split_journey_probability_analytic,
)
from ..core.price_of_randomness import opt_labels_star, price_of_randomness
from ..graphs.generators import star_graph
from ..scenarios import ScenarioRun
from ..scenarios.library import E5_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["build_report", "SCALES", "TARGET_PROBABILITY"]

#: Target probability defining the empirical threshold r̂(n).
TARGET_PROBABILITY = 0.9


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E5 scenario run into the paper-vs-measured report."""
    scale = result.scale
    seed = result.seed

    records: list[dict[str, Any]] = []
    threshold_ratios: list[float] = []
    por_values: list[float] = []
    for sweep_result in result.sweeps:
        grid = [int(point.parameters["r"]) for point in sweep_result]
        n = int(sweep_result.points[0].parameters["n"])
        probabilities = [point.mean("reachable") for point in sweep_result]
        threshold = estimate_probability_threshold(
            [float(r) for r in grid], probabilities, target=TARGET_PROBABILITY
        )
        log_n = math.log(n)
        star = star_graph(n)
        record: dict[str, Any] = {
            "n": n,
            "log_n": log_n,
            "prob_r=1": probabilities[0],
            "prob_r=max": probabilities[-1],
            "empirical_r_hat": threshold if threshold is not None else float("nan"),
        }
        if threshold is not None:
            ratio = threshold / log_n
            # E5 draws its labels from {1, …, n}.
            por = price_of_randomness(
                star, max(1, int(math.ceil(threshold))), opt=opt_labels_star(n, n)
            )
            record["r_hat_over_log_n"] = ratio
            record["PoR"] = por
            record["PoR_over_log_n"] = por / log_n
            threshold_ratios.append(ratio)
            por_values.append(por)
        # F2: the 2-split journey probability at r ≈ log n, measured vs analytic.
        r_probe = max(1, int(round(log_n)))
        record["two_split_prob_measured(r=logn)"] = two_split_journey_probability(
            n, r_probe, trials=2000, seed=seed
        )
        record["two_split_prob_analytic(r=logn)"] = two_split_journey_probability_analytic(
            n, r_probe
        )
        records.append(record)

    single_label_probs = [record["prob_r=1"] for record in records]
    comparison = [
        ComparisonRow(
            quantity="one label per edge is not enough on the star",
            paper="any assignment of 1 label per edge fails to preserve reachability",
            measured=f"P[T_reach | r=1] = {[round(p, 3) for p in single_label_probs]}",
            matches=max(single_label_probs) < 0.05,
            note="both hops through the centre would need increasing labels",
        ),
        ComparisonRow(
            quantity="r(n) grows like log n",
            paper="r(n) = Θ(log n): ρ·log n (ρ>8) suffices, o(log n) fails (Theorem 6)",
            measured=(
                "empirical r̂/log n = "
                f"{[round(x, 2) for x in threshold_ratios]} across the n sweep"
            ),
            matches=bool(threshold_ratios)
            and max(threshold_ratios) / max(min(threshold_ratios), 1e-9) < 4.0,
            note="the ratio stays within a constant-factor band",
        ),
        ComparisonRow(
            quantity="PoR(star) = Θ(log n)",
            paper=(
                "PoR = m·r(n)/OPT with OPT = 2m, hence Θ(log n); exact OPT at "
                "lifetime n is 2m − 1"
            ),
            measured=(
                "PoR/log n = "
                f"{[round(r['PoR_over_log_n'], 2) for r in records if 'PoR_over_log_n' in r]}"
            ),
            matches=bool(por_values),
            note="the measured PoR is m·r̂/(2m − 1), about r̂/2",
        ),
        ComparisonRow(
            quantity="2-split journey probability (Figure 2)",
            paper="P ≥ (1 − 2^{−r})² for r labels per edge",
            measured=(
                "measured vs analytic at r≈log n: "
                + ", ".join(
                    f"n={r['n']}: {r['two_split_prob_measured(r=logn)']:.3f}/"
                    f"{r['two_split_prob_analytic(r=logn)']:.3f}"
                    for r in records
                )
            ),
            matches=all(
                abs(
                    r["two_split_prob_measured(r=logn)"]
                    - r["two_split_prob_analytic(r=logn)"]
                )
                < 0.05
                for r in records
            ),
            note="Monte-Carlo agrees with the exact expression",
        ),
    ]
    return ExperimentReport(
        experiment_id="E5",
        title="Star graph: labels per edge and the Price of Randomness",
        claim=(
            "On the star K_{1,n−1}, Θ(log n) random labels per edge are necessary and "
            "sufficient to strongly guarantee temporal reachability whp, and since the "
            "optimal deterministic assignment uses OPT = 2m labels (2m − 1 from "
            "lifetime 3 on), the Price of Randomness is Θ(log n) (Theorem 6, Figure 2)."
        ),
        records=records,
        comparison=comparison,
        notes=(
            f"The empirical threshold r̂(n) is the smallest r whose measured P[T_reach] "
            f"reaches {TARGET_PROBABILITY}; the paper's whp requirement (1 − n^-a) is "
            "stricter, so r̂ is a lower estimate of the paper's r(n) — the point of the "
            "comparison is the logarithmic growth, which survives the change of target."
        ),
        scale=scale,
    )
