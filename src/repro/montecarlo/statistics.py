"""Summary statistics and confidence intervals for Monte-Carlo metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from ..utils.validation import check_probability

__all__ = [
    "SummaryStatistics",
    "summarize",
    "normal_confidence_interval",
]


@dataclass(frozen=True, slots=True)
class SummaryStatistics:
    """Summary of a sample of a single metric.

    Attributes
    ----------
    count / mean / std / minimum / maximum / median:
        The usual sample statistics (``std`` uses the unbiased ``ddof=1``
        estimator, 0.0 when only one sample is available).
    ci_low / ci_high:
        Normal-approximation confidence interval at the level used by
        :func:`summarize` (95% by default).
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    ci_low: float
    ci_high: float

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width of the CI relative to the absolute mean.

        A zero mean makes the ratio undefined; by convention it is ``inf``
        when the interval has positive width (the estimate genuinely cannot
        be resolved relative to 0) and ``nan`` for the degenerate case of a
        zero-width interval around a zero mean (e.g. a single all-zero
        sample), where "infinitely imprecise" would be misleading.
        """
        if self.mean == 0.0:
            return math.nan if self.half_width == 0.0 else math.inf
        return self.half_width / abs(self.mean)

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary representation."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def normal_confidence_interval(
    values: Sequence[float], *, confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation confidence interval for the mean of ``values``.

    With fewer than two samples the interval degenerates to the single value.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot build a confidence interval from an empty sample")
    confidence = check_probability(confidence, "confidence")
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    # The standard normal quantile: scipy.stats.norm.ppf is this same call.
    z = float(ndtri(0.5 + confidence / 2.0))
    return (mean - z * sem, mean + z * sem)


def summarize(
    values: Sequence[float], *, confidence: float = 0.95
) -> SummaryStatistics:
    """Compute :class:`SummaryStatistics` for a metric sample."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    ci_low, ci_high = normal_confidence_interval(arr, confidence=confidence)
    # The sample mean mathematically lies in [min, max]; clamp away the 1-ulp
    # rounding drift np.mean can introduce on denormal-range samples.
    mean = min(max(float(arr.mean()), float(arr.min())), float(arr.max()))
    return SummaryStatistics(
        count=int(arr.size),
        mean=mean,
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        ci_low=ci_low,
        ci_high=ci_high,
    )
