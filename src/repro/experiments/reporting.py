"""Experiment reports and EXPERIMENTS.md generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..analysis.comparison import ComparisonRow, build_comparison_table
from ..io.tables import format_markdown_table, format_table

__all__ = ["ExperimentReport", "write_experiments_markdown"]


@dataclass
class ExperimentReport:
    """Everything an experiment produces for the written record.

    Attributes
    ----------
    experiment_id:
        The experiment identifier (``"E1"`` … ``"E9"``; see
        ``docs/paper_mapping.md``).
    title:
        One-line description.
    claim:
        The paper statement being reproduced, in prose.
    records:
        The measurement table (one mapping per row).
    comparison:
        Paper-vs-measured verdict rows.
    notes:
        Free-text commentary (parameterisation, caveats, substitutions).
    scale:
        The preset that produced the numbers (``"quick"``, ``"default"``, …).
    """

    experiment_id: str
    title: str
    claim: str
    records: list[Mapping[str, Any]] = field(default_factory=list)
    comparison: list[ComparisonRow] = field(default_factory=list)
    notes: str = ""
    scale: str = "default"

    @property
    def consistent(self) -> bool:
        """Whether every comparison row is consistent with the paper."""
        return all(row.matches for row in self.comparison)

    def to_markdown(self) -> str:
        """Render the full report section as markdown."""
        lines = [
            f"## {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim.** {self.claim}",
            "",
            f"*Scale preset:* `{self.scale}`",
            "",
        ]
        if self.records:
            lines.append("### Measurements")
            lines.append("")
            lines.append(format_markdown_table(self.records))
            lines.append("")
        if self.comparison:
            lines.append("### Paper vs. measured")
            lines.append("")
            lines.append(build_comparison_table(self.comparison))
            lines.append("")
        if self.notes:
            lines.append(f"**Notes.** {self.notes}")
            lines.append("")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Render a console-friendly plain-text version of the report."""
        lines = [f"{self.experiment_id} — {self.title}", "=" * 72]
        if self.records:
            lines.append(format_table(self.records))
        for row in self.comparison:
            verdict = "OK " if row.matches else "FAIL"
            lines.append(f"[{verdict}] {row.quantity}: paper={row.paper} measured={row.measured}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


def write_experiments_markdown(
    reports: Sequence[ExperimentReport],
    path: str | Path,
    *,
    header: str | None = None,
) -> Path:
    """Assemble EXPERIMENTS.md from a collection of experiment reports."""
    path = Path(path)
    parts: list[str] = []
    if header is None:
        header = (
            "# EXPERIMENTS — paper vs. measured\n\n"
            "Reproduction record for *Ephemeral Networks with Random Availability "
            "of Links: Diameter and Connectivity* (Akrida, Gąsieniec, Mertzios, "
            "Spirakis — SPAA 2014).  Every experiment identifier matches the "
            "per-experiment index in DESIGN.md §4.  Absolute constants are not "
            "expected to match a testbed (the substrate is a simulator); the "
            "reported check is the *shape* of each claim — growth rates, "
            "thresholds and who-wins orderings.\n"
        )
    parts.append(header)
    for report in reports:
        parts.append(report.to_markdown())
    content = "\n".join(parts)
    path.write_text(content, encoding="utf-8")
    return path
