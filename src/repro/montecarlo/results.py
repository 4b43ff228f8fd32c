"""Result containers for Monte-Carlo runs and parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from .statistics import SummaryStatistics, summarize

__all__ = ["TrialResult", "SweepResult", "results_to_records"]


@dataclass(frozen=True)
class TrialResult:
    """Aggregated result of repeated trials at a single parameter point.

    Attributes
    ----------
    experiment:
        Name of the experiment.
    parameters:
        The parameter point at which the trials were run.
    metrics:
        Per-trial metric values: ``metric name → values of every repetition``.
    repetitions:
        Number of trials executed.
    """

    experiment: str
    parameters: Mapping[str, Any]
    metrics: Mapping[str, Sequence[float]]
    repetitions: int

    def metric_names(self) -> list[str]:
        """Sorted list of metric names recorded by the trials."""
        return sorted(self.metrics)

    def values(self, metric: str) -> list[float]:
        """Values of a metric across repetitions."""
        if metric not in self.metrics:
            raise KeyError(
                f"metric {metric!r} was not recorded; available: {self.metric_names()}"
            )
        return list(self.metrics[metric])

    def summary(self, metric: str, *, confidence: float = 0.95) -> SummaryStatistics:
        """Summary statistics for one metric."""
        return summarize(self.values(metric), confidence=confidence)

    def mean(self, metric: str) -> float:
        """Convenience accessor for the sample mean of one metric."""
        return self.summary(metric).mean

    def as_record(self) -> dict[str, Any]:
        """Flatten into a single record: parameters plus per-metric summaries."""
        record: dict[str, Any] = {"experiment": self.experiment, "repetitions": self.repetitions}
        record.update({f"param_{k}": v for k, v in self.parameters.items()})
        for metric in self.metric_names():
            stats = self.summary(metric)
            record[f"{metric}_mean"] = stats.mean
            record[f"{metric}_std"] = stats.std
            record[f"{metric}_ci_low"] = stats.ci_low
            record[f"{metric}_ci_high"] = stats.ci_high
        return record


@dataclass
class SweepResult:
    """Results of an experiment across a parameter sweep (one TrialResult per point)."""

    experiment: str
    points: list[TrialResult] = field(default_factory=list)

    def add(self, result: TrialResult) -> None:
        """Append the result of one sweep point."""
        if result.experiment != self.experiment:
            raise ValueError(
                f"cannot add a result of experiment {result.experiment!r} to the "
                f"sweep of {self.experiment!r}"
            )
        self.points.append(result)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self.points)

    def metric_names(self) -> list[str]:
        """Union of metric names across all sweep points."""
        names: set[str] = set()
        for point in self.points:
            names.update(point.metric_names())
        return sorted(names)

    def column(self, parameter: str) -> list[Any]:
        """Values of one parameter across the sweep points, in order."""
        return [point.parameters.get(parameter) for point in self.points]

    def metric_means(self, metric: str) -> list[float]:
        """Mean of one metric across the sweep points, in order."""
        return [point.mean(metric) for point in self.points]

    def as_records(self) -> list[dict[str, Any]]:
        """One flat record per sweep point (see :meth:`TrialResult.as_record`)."""
        return [point.as_record() for point in self.points]


def results_to_records(
    results: Sequence[TrialResult] | SweepResult,
) -> list[dict[str, Any]]:
    """Normalise either a sweep or a list of trial results into flat records."""
    if isinstance(results, SweepResult):
        return results.as_records()
    return [result.as_record() for result in results]
