"""The connectivity threshold of ``G(n, p)``.

The classical threshold sits at ``p* = log n / n``: below it the graph is
disconnected whp, above it connected whp.  The E7 scenario sweeps ``p``
around ``p*`` and reports the measured connectivity probability; the Theorem 5
proof uses exactly the sub-threshold regime.
"""

from __future__ import annotations

import math

from ..utils.validation import check_positive_int

__all__ = ["critical_probability"]


def critical_probability(n: int) -> float:
    """The connectivity threshold ``log n / n`` (natural logarithm)."""
    n = check_positive_int(n, "n")
    if n == 1:
        return 0.0
    return math.log(n) / n
