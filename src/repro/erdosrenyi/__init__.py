"""Erdős–Rényi ``G(n, p)`` substrate.

The lower bounds of the paper (the Remark after Theorem 4 and Theorem 5)
reduce to the classical fact that ``G(n, p)`` is disconnected whp when
``p < (1 − ε)·log n / n``.  This subpackage provides a fast sampler, a
connectivity check on ``scipy.sparse.csgraph`` components and the helpers
used by the E7 experiment to validate the threshold empirically.
"""

from .gnp import (
    connectivity_probability,
    giant_component_fraction,
    gnp_connectivity,
    is_gnp_connected,
    sample_gnp_edges,
)
from .thresholds import connectivity_threshold_curve, critical_probability

__all__ = [
    "sample_gnp_edges",
    "is_gnp_connected",
    "giant_component_fraction",
    "gnp_connectivity",
    "connectivity_probability",
    "connectivity_threshold_curve",
    "critical_probability",
]
