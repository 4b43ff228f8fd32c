"""Experiment protocol: a named, parameterised trial function.

A *trial function* receives the experiment parameters plus a dedicated
:class:`numpy.random.Generator` and returns a flat mapping of metric name to
numeric value.  Keeping trials as plain functions (rather than classes with
state) makes them trivially reproducible: the runner derives one independent
generator per trial from the experiment seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["TrialFunction", "Experiment"]

#: Signature of a Monte-Carlo trial: ``(parameters, rng) -> {metric: value}``.
TrialFunction = Callable[[Mapping[str, Any], np.random.Generator], Mapping[str, float]]


@dataclass(frozen=True)
class Experiment:
    """A named trial function together with its parameters.

    Attributes
    ----------
    name:
        Short identifier used in reports and file names.
    trial:
        The trial function.
    parameters:
        Parameters passed to every trial (the sweep layer varies these).
    description:
        Optional human-readable description shown in reports.
    """

    name: str
    trial: TrialFunction
    parameters: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an experiment needs a non-empty name")
        if not callable(self.trial):
            raise ConfigurationError("the trial must be callable")

    def with_parameters(self, **overrides: Any) -> "Experiment":
        """Return a copy of the experiment with some parameters replaced."""
        merged = dict(self.parameters)
        merged.update(overrides)
        return Experiment(
            name=self.name,
            trial=self.trial,
            parameters=merged,
            description=self.description,
        )

    def run_single(self, rng: np.random.Generator) -> Mapping[str, float]:
        """Run one trial with the given generator and validate its output."""
        return self._validated(self.trial(self.parameters, rng))

    def run_batch(self, rngs: Iterable[np.random.Generator]) -> list[Mapping[str, float]]:
        """Run one trial per generator, in order, and validate their outputs.

        A trial function with a ``batch(parameters, rngs)`` method, which
        returns one mapping per generator in order, gets them all at once
        (:meth:`ScenarioTrial.batch
        <repro.scenarios.pipeline.ScenarioTrial.batch>` decides reachability
        trials in stacks); any other runs once per generator.
        """
        batch = getattr(self.trial, "batch", None)
        if batch is None:
            return [self.run_single(rng) for rng in rngs]
        return [self._validated(metrics) for metrics in batch(self.parameters, rngs)]

    def _validated(self, metrics: Mapping[str, float]) -> dict[str, float]:
        if not isinstance(metrics, Mapping) or not metrics:
            raise ConfigurationError(
                f"trial of experiment {self.name!r} must return a non-empty "
                f"mapping of metrics, got {type(metrics).__name__}"
            )
        validated: dict[str, float] = {}
        for key, value in metrics.items():
            try:
                validated[str(key)] = float(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"metric {key!r} of experiment {self.name!r} is not numeric: "
                    f"{value!r}"
                ) from exc
        return validated
