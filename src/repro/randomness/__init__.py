"""Probability substrate: label distributions.

The paper's UNI-CASE draws each label uniformly from ``{1, …, a}``; the
F-CASE generalisation allows an arbitrary distribution ``F`` over the same
support.  :class:`LabelDistribution` and its concrete subclasses implement
both.
"""

from .distributions import (
    GeometricLabelDistribution,
    LabelDistribution,
    TruncatedZipfLabelDistribution,
    UniformLabelDistribution,
    distribution_from_name,
)
from ..utils.seeding import SeedLike, normalize_rng, spawn_rngs

__all__ = [
    "LabelDistribution",
    "UniformLabelDistribution",
    "GeometricLabelDistribution",
    "TruncatedZipfLabelDistribution",
    "distribution_from_name",
    "SeedLike",
    "normalize_rng",
    "spawn_rngs",
]
