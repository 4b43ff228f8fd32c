"""The built-in scenario library.

Every workload the repository ships is declared here as data and registered
at import time:

* ``E1`` … ``E9`` — the scenarios behind the nine experiments.
  :func:`repro.experiments.registry.run_experiment` runs one through the
  generic pipeline, and its experiment module's ``build_report`` turns the
  result into the paper-comparison report.  The scale presets
  (``*_SCALES``) live here too and are re-exported by the experiment modules
  for backwards compatibility.
* Registry-only scenarios (``hypercube-urtn-diameter``,
  ``er-fcase-reachability``) — brand-new workloads runnable purely from their
  registry definitions via ``repro-experiments scenario run``; no experiment
  module exists for them.

Adding a workload is a matter of composing one more :class:`Scenario` from
registered families, label models and metrics — see ``docs/scenarios.md``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .registry import register_scenario
from .specs import (
    GraphFamilySpec,
    LabelModelSpec,
    MetricSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    SweepBlock,
)

__all__ = [
    "E1_SCALES",
    "E2_SCALES",
    "E3_SCALES",
    "E4_SCALES",
    "E5_SCALES",
    "E6_SCALES",
    "E7_SCALES",
    "E8_SCALES",
    "E9_SCALES",
    "FCASE_DISTRIBUTIONS",
    "star_label_grid",
]

# --------------------------------------------------------------------- #
# scale presets (formerly the SCALES dict of each experiment module)
# --------------------------------------------------------------------- #
E1_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"sizes": [16, 32, 64], "repetitions": 5, "directed": True},
    "default": {"sizes": [16, 32, 64, 128, 256], "repetitions": 15, "directed": True},
    "full": {"sizes": [16, 32, 64, 128, 256, 512], "repetitions": 25, "directed": True},
}

E2_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"n": 32, "multipliers": [1, 2, 4], "repetitions": 5},
    "default": {"n": 64, "multipliers": [1, 2, 4, 8, 16], "repetitions": 12},
    "full": {"n": 128, "multipliers": [1, 2, 4, 8, 16, 32], "repetitions": 20},
}

E3_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"sizes": [64, 128], "repetitions": 5, "c1": 3.0, "c2": 8.0},
    "default": {"sizes": [64, 128, 256], "repetitions": 15, "c1": 3.0, "c2": 8.0},
    "full": {"sizes": [64, 128, 256, 512], "repetitions": 25, "c1": 3.0, "c2": 8.0},
}

E4_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"sizes": [16, 32, 64], "repetitions": 5, "directed": True},
    "default": {"sizes": [16, 32, 64, 128, 256], "repetitions": 15, "directed": True},
    "full": {"sizes": [32, 64, 128, 256, 512, 1024], "repetitions": 25, "directed": True},
}

E5_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"sizes": [32, 64], "repetitions": 20, "max_r_factor": 3.0},
    "default": {"sizes": [64, 128, 256], "repetitions": 40, "max_r_factor": 3.0},
    "full": {"sizes": [64, 128, 256, 512, 1024], "repetitions": 60, "max_r_factor": 3.0},
}

E6_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"n": 16, "families": ["path", "cycle", "grid"], "trials": 10},
    "default": {
        "n": 32,
        "families": ["path", "cycle", "grid", "hypercube", "binary_tree", "erdos_renyi"],
        "trials": 20,
    },
    "full": {
        "n": 64,
        "families": ["path", "cycle", "grid", "hypercube", "binary_tree", "erdos_renyi"],
        "trials": 30,
    },
}

E7_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"n": 64, "multipliers": [0.25, 0.5, 1.0, 1.5, 2.0], "repetitions": 20},
    "default": {
        "n": 256,
        "multipliers": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0],
        "repetitions": 40,
    },
    "full": {
        "n": 1024,
        "multipliers": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0],
        "repetitions": 60,
    },
}

E8_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"n": 48, "repetitions": 5},
    "default": {"n": 128, "repetitions": 12},
    "full": {"n": 256, "repetitions": 20},
}

E9_SCALES: dict[str, dict[str, Any]] = {
    "quick": {"n": 48, "labels": [1, 2, 4], "repetitions": 5},
    "default": {"n": 128, "labels": [1, 2, 4, 8], "repetitions": 12},
    "full": {"n": 256, "labels": [1, 2, 4, 8, 16], "repetitions": 20},
}

#: The F-CASE distributions compared by E8 (name → constructor kwargs).
FCASE_DISTRIBUTIONS: dict[str, dict[str, float]] = {
    "uniform": {},
    "geometric": {"q": 0.05},
    "zipf": {"exponent": 1.0},
}


def star_label_grid(n: int, max_r_factor: float) -> list[int]:
    """E5's label counts to probe: 1 … ≈ ``max_r_factor·log n`` (unique, increasing)."""
    upper = max(4, int(math.ceil(max_r_factor * math.log(n))))
    grid = sorted(set(list(range(1, min(upper, 8) + 1)) + list(
        np.unique(np.linspace(1, upper, num=min(upper, 12), dtype=int)).tolist()
    )))
    return [int(r) for r in grid]


# --------------------------------------------------------------------- #
# scenario constructors
# --------------------------------------------------------------------- #
def _normalized_clique_labels() -> LabelModelSpec:
    """One uniform label per arc from ``{1, …, n}`` — the normalized U-RTN."""
    return LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="n")


def _e1() -> Scenario:
    return Scenario(
        name="E1",
        title="Temporal diameter of the normalized U-RT clique",
        description="Temporal diameter of the normalized U-RT clique (Theorem 4)",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": "directed"}),
        labels=_normalized_clique_labels(),
        metrics=MetricSuite.of("distance_summary", "ratio_to_log_n", "direct_wait_baseline"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"n": list(cfg["sizes"])},
                        constants={"directed": cfg["directed"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E1_SCALES.items()
        },
        experiment_name="E1-temporal-diameter",
        default_seed=2014,
    )


def _e2() -> Scenario:
    return Scenario(
        name="E2",
        title="Temporal diameter vs. lifetime",
        description="Temporal diameter vs. lifetime (Theorem 5)",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=LabelModelSpec(
            model="uniform", labels_per_edge=1, lifetime="multiplier * n"
        ),
        metrics=MetricSuite.of(
            "temporal_diameter", "theorem5_scaled_bound", "prefix_connectivity"
        ),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"multiplier": list(cfg["multipliers"])},
                        constants={"n": cfg["n"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E2_SCALES.items()
        },
        experiment_name="E2-lifetime",
        default_seed=2015,
    )


def _e3() -> Scenario:
    return Scenario(
        name="E3",
        title="Expansion Process (Algorithm 1)",
        description="Success probability and arrival time of Algorithm 1",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=_normalized_clique_labels(),
        metrics=MetricSuite.of("expansion_process"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"n": list(cfg["sizes"])},
                        constants={"c1": cfg["c1"], "c2": cfg["c2"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E3_SCALES.items()
        },
        experiment_name="E3-expansion-process",
        default_seed=2016,
    )


def _e4() -> Scenario:
    return Scenario(
        name="E4",
        title="Flooding dissemination vs. the phone-call baseline",
        description="Flooding broadcast time on the hostile clique (§3.5)",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": "directed"}),
        labels=_normalized_clique_labels(),
        metrics=MetricSuite.of("flood_vs_phone_call"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"n": list(cfg["sizes"])},
                        constants={"directed": cfg["directed"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E4_SCALES.items()
        },
        experiment_name="E4-dissemination",
        default_seed=2017,
    )


def _e5() -> Scenario:
    return Scenario(
        name="E5",
        title="Star graph: labels per edge and the Price of Randomness",
        description=(
            "Reachability probability of the star vs labels per edge (Theorem 6)"
        ),
        graph=GraphFamilySpec("star", {"n": "n"}),
        labels=LabelModelSpec(model="uniform", labels_per_edge="r", lifetime="n"),
        metrics=MetricSuite.of("strong_reachability"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                # The r grid depends on n, so each n is its own sweep block —
                # matching the historical per-n run_sweep calls exactly.
                blocks=tuple(
                    SweepBlock(
                        axes={"r": star_label_grid(int(n), cfg["max_r_factor"])},
                        constants={"n": int(n)},
                    )
                    for n in cfg["sizes"]
                ),
                extras=cfg,
            )
            for key, cfg in E5_SCALES.items()
        },
        experiment_name="E5-star-por",
        default_seed=2018,
    )


def _e6() -> Scenario:
    return Scenario(
        name="E6",
        title="General graphs: sufficient labels and the PoR upper bound",
        description=(
            "Theorems 7-8 audit and the box assignment across sized graph families"
        ),
        graph=GraphFamilySpec("none"),
        labels=LabelModelSpec(model="none"),
        metrics=MetricSuite.of("theorem7_por_audit"),
        scales={
            key: ScenarioScale(
                repetitions=1,
                blocks=(
                    SweepBlock(
                        axes={"family": list(cfg["families"])},
                        constants={"n": cfg["n"], "trials": cfg["trials"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E6_SCALES.items()
        },
        mode="direct",
        experiment_name="E6-general-por",
        default_seed=2019,
        rngs_per_point=4,
    )


def _e7() -> Scenario:
    return Scenario(
        name="E7",
        title="Erdős–Rényi connectivity threshold (substrate)",
        description="Connectivity of G(n, p) around the log n / n threshold",
        graph=GraphFamilySpec("none"),
        labels=LabelModelSpec(model="none"),
        metrics=MetricSuite.of("er_connectivity"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"multiplier": [float(m) for m in cfg["multipliers"]]},
                        constants={"n": cfg["n"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E7_SCALES.items()
        },
        experiment_name="E7-er-connectivity",
        default_seed=2020,
    )


def _e8() -> Scenario:
    return Scenario(
        name="E8",
        title="F-CASE: non-uniform label distributions (extension)",
        description=(
            "Temporal diameter of the clique under non-uniform label distributions"
        ),
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=LabelModelSpec(
            model="uniform",
            labels_per_edge=1,
            lifetime="n",
            distribution={
                "param": "distribution",
                "kwargs_by_name": FCASE_DISTRIBUTIONS,
            },
        ),
        metrics=MetricSuite.of("temporal_diameter", "flood_time", "mean_label"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"distribution": list(FCASE_DISTRIBUTIONS)},
                        constants={"n": cfg["n"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E8_SCALES.items()
        },
        experiment_name="E8-fcase",
        default_seed=2021,
    )


def _e9() -> Scenario:
    return Scenario(
        name="E9",
        title="Multi-label random cliques (extension)",
        description="Temporal diameter of the clique vs labels per edge",
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=LabelModelSpec(model="uniform", labels_per_edge="r", lifetime="n"),
        metrics=MetricSuite.of("distance_summary", "total_labels"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(
                    SweepBlock(
                        axes={"r": list(cfg["labels"])},
                        constants={"n": cfg["n"]},
                    ),
                ),
                extras=cfg,
            )
            for key, cfg in E9_SCALES.items()
        },
        experiment_name="E9-multilabel",
        default_seed=2022,
    )


def _hypercube_urtn_diameter() -> Scenario:
    """Registry-only workload: U-RTN temporal diameter on hypercubes.

    A brand-new grid point — high-diameter sparse family × the paper's
    normalized single-label model × the distance metric suite — assembled
    entirely from registered parts.
    """
    sizes = {"quick": [3, 4], "default": [3, 4, 5, 6], "full": [4, 5, 6, 7, 8]}
    reps = {"quick": 4, "default": 10, "full": 20}
    return Scenario(
        name="hypercube-urtn-diameter",
        title="U-RTN temporal diameter on hypercubes",
        description=(
            "Mean temporal distance, reachable fraction and connectivity rate "
            "of the hypercube Q_d under one uniform label per edge from "
            "{1, …, 2^d}"
        ),
        graph=GraphFamilySpec("hypercube", {"dimension": "dimension"}),
        labels=LabelModelSpec(model="uniform", labels_per_edge=1, lifetime="graph_n"),
        # A single label rarely connects a sparse graph (that is Theorem 6's
        # point), so the suite reads reachability-aware statistics rather than
        # the (often infinite) diameter.
        metrics=MetricSuite.of(
            MetricSpec(
                "distance_summary",
                {
                    "fields": [
                        "mean_temporal_distance",
                        "reachable_fraction",
                        "temporally_connected",
                    ]
                },
            )
        ),
        scales={
            key: ScenarioScale(
                repetitions=reps[key],
                blocks=(SweepBlock(axes={"dimension": sizes[key]}),),
            )
            for key in sizes
        },
        default_seed=2030,
    )


def _er_fcase_reachability() -> Scenario:
    """Registry-only workload: F-CASE reachability on supercritical G(n, p).

    Sparse random substrate × front-loaded geometric label distribution ×
    strong-reachability metric — the second no-new-module grid point.
    """
    grids = {
        "quick": {"n": [24, 48], "r": [1, 2, 4], "repetitions": 6},
        "default": {"n": [32, 64, 128], "r": [1, 2, 4, 8], "repetitions": 15},
        "full": {"n": [64, 128, 256], "r": [1, 2, 4, 8, 16], "repetitions": 30},
    }
    return Scenario(
        name="er-fcase-reachability",
        title="F-CASE reachability on supercritical Erdős–Rényi graphs",
        description=(
            "Probability that r geometric (q=0.05) labels per edge preserve "
            "reachability on G(n, 3·log n / n)"
        ),
        graph=GraphFamilySpec(
            "gnp_supercritical", {"n": "n", "factor": 3.0, "seed": 7}
        ),
        labels=LabelModelSpec(
            model="uniform",
            labels_per_edge="r",
            lifetime="graph_n",
            distribution={"name": "geometric", "kwargs": {"q": 0.05}},
        ),
        metrics=MetricSuite.of("strong_reachability"),
        scales={
            key: ScenarioScale(
                repetitions=cfg["repetitions"],
                blocks=(SweepBlock(axes={"n": cfg["n"], "r": cfg["r"]}),),
            )
            for key, cfg in grids.items()
        },
        default_seed=2031,
    )


def _clique_temporal_centrality() -> Scenario:
    """Registry-only workload: temporal centrality of the normalized clique.

    The paper's flagship model × the new centrality metric family — the whole
    suite is served from the one batched sweep each trial already pays for, so
    the workload exists entirely as registry data; no experiment module.
    """
    sizes = {"quick": [16, 32], "default": [16, 32, 64], "full": [32, 64, 128]}
    reps = {"quick": 4, "default": 10, "full": 20}
    return Scenario(
        name="clique-temporal-centrality",
        title="Temporal centrality of the normalized U-RT clique",
        description=(
            "Closeness, harmonic closeness and influence/reach fractions of "
            "the directed clique under one uniform label per arc from "
            "{1, …, n}"
        ),
        graph=GraphFamilySpec("clique", {"n": "n", "directed": True}),
        labels=_normalized_clique_labels(),
        metrics=MetricSuite.of(
            MetricSpec(
                "temporal_centrality",
                {
                    "fields": [
                        "mean_closeness",
                        "max_closeness",
                        "mean_harmonic_closeness",
                        "mean_influence",
                        "mean_reach",
                    ]
                },
            )
        ),
        scales={
            key: ScenarioScale(
                repetitions=reps[key],
                blocks=(SweepBlock(axes={"n": sizes[key]}),),
            )
            for key in sizes
        },
        default_seed=2032,
    )


for _factory in (
    _e1,
    _e2,
    _e3,
    _e4,
    _e5,
    _e6,
    _e7,
    _e8,
    _e9,
    _hypercube_urtn_diameter,
    _er_fcase_reachability,
    _clique_temporal_centrality,
):
    register_scenario(_factory())
