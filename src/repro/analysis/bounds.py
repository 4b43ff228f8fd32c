"""The paper's theoretical predictions, as plain functions of the parameters.

Each function documents which statement of the paper it encodes; the
experiment layer evaluates them at the measured parameter points so the
reports can print "paper says / we measured" side by side.
"""

from __future__ import annotations

import math

from ..utils.validation import check_positive_int

__all__ = [
    "temporal_diameter_prediction",
    "expected_direct_wait",
    "phone_call_rounds_prediction",
]


def temporal_diameter_prediction(n: int, *, gamma: float = 1.0) -> float:
    """Theorem 4: the temporal diameter of the normalized clique is ``≤ γ·log n`` whp.

    The constant ``γ`` is not pinned down by the paper (it emerges from the
    Chernoff constants); the experiments fit it from the measurements, and
    ``γ = 1`` gives the bare ``log n`` reference curve.
    """
    n = check_positive_int(n, "n")
    return gamma * math.log(n)


def expected_direct_wait(n: int) -> float:
    """Expected arrival time of the trivial 1-hop strategy on the clique: ``≈ n/2``.

    The introduction contrasts this ("wait for the link (s, t) to become
    available … a passing time equal to n/2 in expectation") with the
    ``Θ(log n)`` achievable through multi-hop journeys.
    """
    n = check_positive_int(n, "n")
    return (n + 1) / 2.0


def phone_call_rounds_prediction(n: int) -> float:
    """Frieze–Grimmett/Pittel: push rumour spreading takes ``log₂ n + ln n`` rounds.

    The §1.1 baseline the dissemination experiment compares against.
    """
    n = check_positive_int(n, "n")
    if n == 1:
        return 0.0
    return math.log2(n) + math.log(n)
