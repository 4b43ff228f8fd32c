"""Erdős–Rényi ``G(n, p)`` substrate.

The lower bounds of the paper (the Remark after Theorem 4 and Theorem 5)
reduce to the classical fact that ``G(n, p)`` is disconnected whp when
``p < (1 − ε)·log n / n``.  This subpackage provides the sampler, the one
connectivity check (:func:`gnp_connectivity`, a ``scipy.sparse.csgraph``
components pass) and the threshold ``log n / n`` that the E7 scenario sweeps
around.
"""

from .gnp import gnp_connectivity, sample_gnp_edges
from .thresholds import critical_probability

__all__ = [
    "sample_gnp_edges",
    "gnp_connectivity",
    "critical_probability",
]
