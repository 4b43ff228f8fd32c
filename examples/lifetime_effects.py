#!/usr/bin/env python
"""Scenario: the price of a long lifetime (Theorem 5).

When the availability times are spread over a window much longer than the
number of nodes (lifetime a ≫ n), dissemination slows down proportionally:
the temporal diameter grows like (a/n)·log n.  This example fixes n, sweeps
the lifetime multiplier and prints the measured temporal diameter, the
certified per-instance lower bound (the first time the revealed edges connect
the graph) and the (a/n)·log n reference curve.

Run:  python examples/lifetime_effects.py
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro import NetworkAnalysis, complete_graph, uniform_random_labels
from repro.core.lifetime import prefix_connectivity_time, temporal_diameter_lower_bound_theorem5
from repro.io.tables import format_table


def main(n: int = 64, multipliers: tuple[int, ...] = (1, 2, 4, 8, 16), trials: int = 6, seed: int = 5) -> None:
    clique = complete_graph(n, directed=True)
    rng = np.random.default_rng(seed)
    rows = []
    for multiplier in multipliers:
        lifetime = multiplier * n
        diameters = []
        certificates = []
        for _ in range(trials):
            network = uniform_random_labels(clique, lifetime=lifetime, seed=rng)
            diameters.append(NetworkAnalysis(network).diameter)
            certificates.append(prefix_connectivity_time(network))
        scale = temporal_diameter_lower_bound_theorem5(n, lifetime)
        rows.append(
            {
                "lifetime a": lifetime,
                "a / n": multiplier,
                "measured TD": float(np.mean(diameters)),
                "certified lower bound": float(np.mean(certificates)),
                "(a/n)·log n reference": scale,
                "TD / reference": float(np.mean(diameters)) / scale,
            }
        )
    print(format_table(rows, title=f"Temporal diameter vs lifetime on K_{n} (means over {trials} instances)"))
    print()
    print("The temporal diameter tracks (a/n)·log n — the lifetime dependence that")
    print("static models such as the random phone-call process cannot express (Theorem 5).")


if __name__ == "__main__":
    if os.environ.get("REPRO_EXAMPLE_QUICK"):
        main(n=32, multipliers=(1, 2, 4), trials=3)
    else:
        main()
