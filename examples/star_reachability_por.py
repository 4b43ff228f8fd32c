#!/usr/bin/env python
"""Scenario: buying random availability on a star network (Theorem 6).

A hub-and-spoke network (the star K_{1,n−1}) cannot be made temporally
reachable with a single random availability per link — the two hops through
the hub would need increasing labels.  How many random availabilities must be
bought per link?  This example sweeps the number of labels per edge, measures
the probability that all pairs can communicate, locates the empirical
threshold and reports the resulting Price of Randomness — all Θ(log n), as
Theorem 6 proves.

Run:  python examples/star_reachability_por.py
"""

from __future__ import annotations

import math
import os

from repro import (
    opt_labels_star,
    price_of_randomness,
    reachability_probability,
    star_graph,
    tree_broadcast_assignment,
)
from repro.analysis.thresholds import estimate_probability_threshold
from repro.core.guarantees import two_split_journey_probability_analytic
from repro.io.tables import format_table


def main(n: int = 256, trials: int = 40, seed: int = 3) -> None:
    star = star_graph(n)
    log_n = math.log(n)
    r_values = sorted({1, 2, 3, 4, 6, 8, int(log_n), int(2 * log_n), int(3 * log_n)})

    rows = []
    for r in r_values:
        probability = reachability_probability(star, r, trials=trials, seed=seed + r)
        rows.append(
            {
                "labels_per_edge_r": r,
                "P[all pairs reachable]": probability,
                "2-split prob (analytic, one pair)": two_split_journey_probability_analytic(n, r),
            }
        )
    print(format_table(rows, title=f"Star K_{{1,{n - 1}}}: reachability vs labels per edge"))

    threshold = estimate_probability_threshold(
        [float(r) for r in r_values],
        [row["P[all pairs reachable]"] for row in rows],
        target=0.9,
    )
    opt = opt_labels_star(n, lifetime=n)
    deterministic = tree_broadcast_assignment(star)
    print()
    print(f"log n                          = {log_n:.2f}")
    print(f"empirical threshold r̂ (90%)    = {threshold:.2f}" if threshold else "no threshold found")
    if threshold:
        por = price_of_randomness(star, max(1, round(threshold)), opt=opt)
        print(f"OPT (deterministic, = 2m − 1)  = {opt}  "
              f"(the 2m assignment of Theorem 6 uses {deterministic.total_labels} labels)")
        print(f"Price of Randomness m·r̂/OPT    = {por:.2f}  (≈ r̂/2, i.e. Θ(log n))")
    print()
    print("Paying randomly costs a Θ(log n) factor over the optimal deterministic labelling.")


if __name__ == "__main__":
    if os.environ.get("REPRO_EXAMPLE_QUICK"):
        main(n=64, trials=15)
    else:
        main()
