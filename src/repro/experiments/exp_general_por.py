"""E6 / F3 — Guaranteeing reachability on general graphs (Theorems 7–8).

Theorem 7: assigning more than ``2·d(G)·log n`` uniform random labels to every
edge of any connected graph ``G`` guarantees temporal reachability whp — the
proof splits the lifetime into ``d(G)`` boxes (Figure 3) and shows every box
of every edge receives a label whp, after which Claim 1 turns any static
shortest path into a journey.  Theorem 8 converts this into the upper bound
``PoR(G) ≤ (2·d(G)·log n + ε)·m/(n−1)``.

The workload is the declarative scenario ``"E6"`` — a *direct-mode* scenario
whose per-point audit (the ``theorem7_por_audit`` metric) runs, for each
sized graph family (path, cycle, grid, hypercube, tree, Erdős–Rényi):

* the measured reachability probability at ``r = ⌈2·d·log n⌉`` (should be ≈ 1)
  and at a fraction of it,
* the empirical threshold ``r̂`` and the measured PoR against the Theorem 8
  bound,
* a direct verification of Claim 1: the deterministic box assignment preserves
  reachability on every family (the F3 check).

``jobs=N`` maps the per-family audits over a process pool; each point owns a
pre-spawned slice of RNG streams, so results are identical to the serial run.
"""

from __future__ import annotations

from ..analysis.comparison import ComparisonRow
from ..scenarios import ScenarioRun
from ..scenarios.families import SIZED_FAMILIES as GRAPH_FAMILIES
from ..scenarios.library import E6_SCALES as SCALES
from .reporting import ExperimentReport

__all__ = ["GRAPH_FAMILIES", "build_report", "SCALES"]


def build_report(result: ScenarioRun) -> ExperimentReport:
    """Turn an E6 scenario run into the paper-vs-measured report."""
    records = result.to_records()
    box_checks = [bool(r["box_assignment_preserves_reachability"]) for r in records]
    sufficient_checks = [r["P[T_reach]_at_r_sufficient"] >= 0.95 for r in records]
    por_within_bound = [
        r["measured_PoR"] <= r["theorem8_PoR_bound"] + 1e-9 for r in records
    ]

    comparison = [
        ComparisonRow(
            quantity="r > 2·d(G)·log n labels per edge suffice",
            paper="Theorem 7: such r guarantees temporal reachability whp on any connected G",
            measured=(
                "P[T_reach] at r=⌈2d·log n⌉+1: "
                + ", ".join(
                    f"{r['family']}={r['P[T_reach]_at_r_sufficient']:.2f}" for r in records
                )
            ),
            matches=all(sufficient_checks),
            note="every family reaches (near-)certain reachability at the Theorem 7 value",
        ),
        ComparisonRow(
            quantity="measured PoR is below the Theorem 8 bound",
            paper="PoR(G) ≤ (2·d·log n + ε)·m/(n−1) (Theorem 8)",
            measured=(
                ", ".join(
                    f"{r['family']}: {r['measured_PoR']:.1f} ≤ {r['theorem8_PoR_bound']:.1f}"
                    for r in records
                )
            ),
            matches=all(por_within_bound),
            note="measured PoR uses the empirical r̂ and the constructive OPT upper bound",
        ),
        ComparisonRow(
            quantity="box assignment preserves reachability (Figure 3, Claim 1)",
            paper="one label per box per edge makes every shortest path a journey",
            measured=f"verified on {sum(box_checks)}/{len(box_checks)} families",
            matches=all(box_checks),
            note="deterministic construction checked exactly on each instance",
        ),
        ComparisonRow(
            quantity="empirical thresholds sit below the sufficient value",
            paper="Theorem 7 is an upper bound on r(n), not tight for every graph",
            measured=(
                ", ".join(
                    f"{r['family']}: r̂={r['empirical_r_hat']} vs 2d·log n={r['r_theorem7_=2d·log n']:.0f}"
                    for r in records
                )
            ),
            matches=all(
                r["empirical_r_hat"] <= r["r_theorem7_=2d·log n"] + 1 for r in records
            ),
            note="r̂ ≤ sufficient value everywhere, as the theory requires",
        ),
    ]
    return ExperimentReport(
        experiment_id="E6",
        title="General graphs: sufficient labels and the PoR upper bound",
        claim=(
            "For every connected graph, assigning more than 2·d(G)·log n uniform random "
            "labels per edge guarantees temporal reachability whp (Theorem 7), and the "
            "Price of Randomness is at most (2·d(G)·log n + ε)·m/(n−1) (Theorem 8); the "
            "deterministic box structure of Figure 3 preserves reachability (Claim 1)."
        ),
        records=records,
        comparison=comparison,
        notes=(
            "Graph sizes are matched approximately per family (grids and hypercubes "
            "round n to the nearest feasible size). The empirical r̂ targets 90% "
            "reachability probability rather than the paper's 1 − n^{-a}."
        ),
        scale=result.scale,
    )
