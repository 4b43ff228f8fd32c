"""Paper-vs-measured comparison rows used to assemble EXPERIMENTS.md."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["ComparisonRow", "build_comparison_table"]


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One line of a paper-vs-measured comparison.

    Attributes
    ----------
    quantity:
        What is being compared (e.g. "temporal diameter, n=256").
    paper:
        The paper's statement or predicted value, as a display string.
    measured:
        The measured value, as a display string.
    matches:
        Whether the measurement is consistent with the paper's claim (its
        *shape* — growth rates, thresholds, orderings — not absolute
        equality).
    note:
        Optional free-text commentary.
    """

    quantity: str
    paper: str
    measured: str
    matches: bool
    note: str = ""

    def as_markdown(self) -> str:
        """Render as a markdown table row."""
        verdict = "yes" if self.matches else "NO"
        return f"| {self.quantity} | {self.paper} | {self.measured} | {verdict} | {self.note} |"


def build_comparison_table(rows: Iterable[ComparisonRow]) -> str:
    """Render comparison rows as a complete markdown table."""
    rows = list(rows)
    header = (
        "| Quantity | Paper | Measured | Consistent | Note |\n"
        "|---|---|---|---|---|"
    )
    if not rows:
        return header
    body = "\n".join(row.as_markdown() for row in rows)
    return f"{header}\n{body}"
